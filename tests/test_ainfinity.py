import random
from fractions import Fraction
from itertools import product

import pytest

from fatcomplex import ainfinity
from fatcomplex.ainfinity import (
    AInfinityAlgebra,
    InvalidAlgebra,
    ZeroX0,
    check_partition_cocycle,
    contraction_identity_holds,
    one_dimensional_algebra,
    partition_function,
    partition_function_chain,
    verify_ainfinity,
    z_x,
    z_x_chain,
    zx_expansion_check,
)
from fatcomplex.graph_complex import ClassCorpus, d_integral, enumerate_graphs, eval_w
from fatcomplex.linalg import matrix_inverse
from fatcomplex.ribbon import (
    OrientedRibbonGraph,
    build_graph,
    graph_from_key,
    reference_word,
    word_parity,
)
from reference import (
    chain_of,
    m_basis,
    reference_cyclicity_failures,
    reference_verify_ainfinity,
    reversed_orientation,
    transport_sign,
)

GRASSMANN_PAIRING = [
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [0, -1, 0, 0],
    [1, 0, 0, 0],
]


def grassmann_two():
    """The rank-4 superalgebra on 1, t1, t2, t1 t2 with the top-degree
    coefficient pairing; m_2 is the product."""
    parities = [0, 1, 1, 0]
    mul = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
        (1, 2): {3: 1}, (2, 1): {3: -1},
    }
    return AInfinityAlgebra(parities, GRASSMANN_PAIRING, {2: mul})


def graded_cyclic_algebra(parities, pairing, arities, seed):
    """A cyclic algebra with odd elements and nonzero partition functions,
    which need not satisfy the A-infinity relations: each m_k comes from a
    seeded (k+1)-linear form phi(x_0, ..., x_k) = <m_k(x_1, ..., x_k), x_0>,
    summed over its k+1 graded cyclic rotations."""
    rng = random.Random(seed)
    n = len(parities)
    ginv = matrix_inverse([[Fraction(x) for x in row] for row in pairing])
    products = {}
    for k in arities:
        # m_k has degree k, so phi vanishes unless the parities add up to k
        phi = {x: rng.randint(-3, 3) for x in product(range(n), repeat=k + 1)
               if sum(parities[i] for i in x) % 2 == k % 2}
        term = dict(phi)
        for _ in range(k):
            # (T f)(x_0, ..., x_k) = (-1)^(k + (k+1) p(x_0)) f(x_k, x_0, ..., x_{k-1})
            term = {x: (-1) ** (k + (k + 1) * parities[x[0]]) * term[x[-1:] + x[:-1]]
                    for x in term}
            for x, v in term.items():
                phi[x] += v
        products[k] = {
            args: {j: sum(phi.get((x0,) + args, 0) * ginv[x0][j] for x0 in range(n))
                   for j in range(n)}
            for args in product(range(n), repeat=k)}
    return AInfinityAlgebra(parities, pairing, products)


def odd_grassmann_pairing():
    """m_2 from a seeded graded-cyclic form on the Grassmann pairing: odd,
    and nonzero on both theta graphs, unlike `grassmann_two`."""
    return graded_cyclic_algebra([0, 1, 1, 0], GRASSMANN_PAIRING, (2,), 1)


def odd_rank_three():
    return graded_cyclic_algebra([0, 1, 1], [[1, 0, 0], [0, 0, 1], [0, -1, 0]], (2, 3, 4), 0)


def matrix_superalgebra(row_parities):
    """gl(p|q): the matrix units E_ij, of parity p(i) + p(j), with the
    supertrace pairing <E_ij, E_ji> = (-1)^p(i).  Associative, so its
    partition function is a cocycle; for gl(2|1) it is 1 on the three
    trivalent classes with 6 half-edges."""
    n = len(row_parities)
    parities = [(row_parities[i] + row_parities[j]) % 2 for i in range(n) for j in range(n)]
    pairing = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            pairing[i * n + j][j * n + i] = (-1) ** row_parities[i]
    mul = {(i * n + j, j * n + l): {i * n + l: 1}
           for i in range(n) for j in range(n) for l in range(n)}
    return AInfinityAlgebra(parities, pairing, {2: mul})


def dense_rank_two(seed):
    """The dense rank-2 algebra of the state-sum benchmark: the direct sum
    of two seeded rank-one algebras up to arity 8, in a seeded basis."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    x = [rational() for _ in range(4)]
    y = [rational() for _ in range(4)]
    while True:
        basis = [[rational() for _ in range(2)] for _ in range(2)]
        if basis[0][0] * basis[1][1] != basis[0][1] * basis[1][0]:
            break
    products = {k: {(0,) * k: {0: x[k // 2 - 1]}, (1,) * k: {1: y[k // 2 - 1]}}
                for k in range(2, 9, 2)}
    return AInfinityAlgebra([0, 0], [[1, 0], [0, 1]], products), basis


def reference_partition_function(algebra, og, vertex_order=None, starts=None):
    """The state sum as first written: every basis labeling of the
    half-edges, each vertex factor recomputed per labeling."""
    g = og.graph
    cycles = list(g.vertices) if vertex_order is None else [tuple(c) for c in vertex_order]
    rotated = []
    for c in cycles:
        s = starts.get(tuple(sorted(c)), min(c)) if starts is not None else min(c)
        i = c.index(s)
        rotated.append(c[i:] + c[:i])
    word = []
    for c in rotated:
        word.append(("v", min(c)))
        word.extend(c)
    eps1 = og.sign * word_parity(reference_word(g.vertices), word)
    sequence = []
    for c in rotated:
        sequence.extend(reversed(c[1:]))
        sequence.append(c[0])
    edges = g.edges()
    pos = {h: i for i, h in enumerate(g.half_edges)}
    ginv = matrix_inverse([list(row) for row in algebra.pairing])
    total = Fraction(0)
    for state in product(range(algebra.rank), repeat=len(pos)):
        term = eps1
        for c in rotated:
            out = m_basis(algebra, tuple(state[pos[h]] for h in reversed(c[1:])))
            x0 = state[pos[c[0]]]
            term *= sum((coeff * algebra.pairing[j][x0] for j, coeff in out.items()),
                        Fraction(0))
            if not term:
                break
        for a, b in edges:
            if not term:
                break
            h, hbar = (a, b) if a < b else (b, a)
            term *= ginv[state[pos[h]]][state[pos[hbar]]]
        if not term:
            continue
        odd_in_sequence = [h for h in sequence if algebra.parities[state[pos[h]]]]
        paired_order = [h for a, b in edges for h in sorted((a, b))
                        if algebra.parities[state[pos[h]]]]
        total += term * word_parity(odd_in_sequence, paired_order)
    return total


def reference_change_basis_products(algebra, matrix):
    """The structure table in the new basis as first written: m_k
    extended multilinearly over every product of basis supports."""
    p = [[Fraction(x) for x in row] for row in matrix]
    n = algebra.rank
    pinv = matrix_inverse(p)

    def m_vectors(vectors):
        out = {}
        for combo in product(*[sorted(v) for v in vectors]):
            coeff = Fraction(1)
            for v, i in zip(vectors, combo):
                coeff *= v[i]
            for j, c in m_basis(algebra, combo).items():
                out[j] = out.get(j, Fraction(0)) + coeff * c
        return out

    products = {}
    for k in algebra.products:
        table = {}
        for args in product(range(n), repeat=k):
            out_old = m_vectors([{i: p[i][a] for i in range(n) if p[i][a]} for a in args])
            out_new = {j: sum(pinv[j][i] * c for i, c in out_old.items()) for j in range(n)}
            out_new = {j: c for j, c in out_new.items() if c}
            if out_new:
                table[args] = out_new
        if table:
            products[k] = table
    return products


def theta(planar=True):
    if planar:
        return build_graph([(1, 2, 3), (6, 5, 4)], [(1, 4), (2, 5), (3, 6)])
    return build_graph([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])


def test_one_dimensional_algebra_satisfies_relations():
    for x in ([1, 1, 1], [Fraction(2, 3), Fraction(-1, 5), 7]):
        alg = one_dimensional_algebra(x, 8)
        assert verify_ainfinity(alg, 8) == []
        assert alg.cyclicity_failures() == []


def test_zero_structure_passes():
    alg = AInfinityAlgebra([0], [[1]], {})
    assert verify_ainfinity(alg, 6) == []


def test_injected_m3_fails_at_arity_five():
    alg = AInfinityAlgebra([0], [[1]], {3: {(0, 0, 0): {0: 1}}}, strict=False)
    failures = verify_ainfinity(alg, 5)
    assert failures
    assert min(k for k, _ in failures) == 5


def perturbed_dense_rank_two():
    """The changed-basis `dense_rank_two(3)` with one m_4 entry moved:
    it breaks both the A-infinity relations and cyclic symmetry."""
    dense, basis = dense_rank_two(3)
    dense = dense.change_basis(basis)
    products = {k: {args: dict(vec) for args, vec in table.items()}
                for k, table in dense.products.items()}
    out = products[4][(0, 1, 1, 0)]
    out[0] = out.get(0, 0) + Fraction(1, 7)
    return AInfinityAlgebra(dense.parities, dense.pairing, products)


def cross_cancelling():
    """A rank-2 algebra whose relation at (b_0, b_0, b_0) vanishes only
    by cancelling between a term of m_1 and m_3, exact times 2, and one
    of m_2 and m_2, exact times 4; it is no A-infinity algebra."""
    products = {1: {(1,): {0: Fraction(1, 2)}}, 3: {(0, 0, 0): {1: -1}},
                2: {(0, 0): {1: Fraction(1, 2)}, (1, 0): {0: 1}}}
    return AInfinityAlgebra([0, 0], [[1, 0], [0, 1]], products, strict=False)


def test_relation_and_cyclicity_checks_match_fraction_references():
    dense, basis = dense_rank_two(3)
    # (algebra, max arity, whether relations fail, whether cyclicity fails)
    cases = [
        (one_dimensional_algebra([1, 1, 1], 8), 8, False, False),
        (one_dimensional_algebra([Fraction(2, 3), Fraction(-1, 5), 7], 8), 8, False, False),
        (AInfinityAlgebra([0], [[1]], {}), 6, False, False),
        (AInfinityAlgebra([0], [[1]], {3: {(0, 0, 0): {0: 1}}}, strict=False), 5, True, True),
        (grassmann_two(), 5, False, False),
        (odd_grassmann_pairing(), 4, True, False),
        (odd_rank_three(), 5, True, False),
        (matrix_superalgebra([0, 0, 1]), 3, False, False),
        (dense, 9, False, False),
        # the denominators of m_2, m_4 differ from those of m_6, m_8
        (dense.change_basis(basis), 9, False, False),
        (perturbed_dense_rank_two(), 9, True, True),
        (cross_cancelling(), 4, True, True),
    ]
    for alg, max_arity, relations_fail, cyclicity_fails in cases:
        failures = verify_ainfinity(alg, max_arity)
        assert failures == reference_verify_ainfinity(alg, max_arity)
        assert bool(failures) == relations_fail
        cyclic = alg.cyclicity_failures()
        assert cyclic == reference_cyclicity_failures(alg)
        assert bool(cyclic) == cyclicity_fails
    # m_1(m_3(b_0, b_0, b_0)) cancels m_2(m_2(b_0, b_0), b_0) across denominators 2 and 4
    assert (3, (0, 0, 0)) not in verify_ainfinity(cross_cancelling(), 3)


def test_strict_validation_rejects_inhomogeneous_m3():
    with pytest.raises(InvalidAlgebra):
        AInfinityAlgebra([0], [[1]], {3: {(0, 0, 0): {0: 1}}})


def test_structure_indices_must_lie_in_the_basis():
    for products in ({2: {(0, 1): {0: 1}}}, {2: {(0, -1): {0: 1}}}, {2: {(0, 0): {1: 1}}},
                     {2: {(0, 0): {-1: 0}}}):
        for strict in (True, False):
            with pytest.raises(InvalidAlgebra):
                AInfinityAlgebra([0], [[1]], products, strict=strict)


def test_pairing_validation():
    with pytest.raises(InvalidAlgebra):
        AInfinityAlgebra([0, 1], [[1, 1], [1, 0]], {})  # odd entry nonzero
    with pytest.raises(InvalidAlgebra):
        AInfinityAlgebra([0], [[0]], {})  # degenerate


def test_grassmann_is_valid():
    alg = grassmann_two()
    assert verify_ainfinity(alg, 6) == []
    assert alg.cyclicity_failures() == []
    assert contraction_identity_holds(alg)


def test_contraction_identity_sees_a_transposed_inverse():
    # the inverse's table with its two digits swapped holds ginv[b][a] for
    # ginv[a][b], which differs in sign on odd elements
    for alg in (grassmann_two(), odd_rank_three(), matrix_superalgebra([0, 0, 1])):
        assert contraction_identity_holds(alg)
        n = alg.rank
        pairing, (dgi, inverse), products = alg._scaled
        swapped = {code // n + n * (code % n): v for code, v in inverse.items()}
        assert swapped != inverse
        alg._scaled = pairing, (dgi, swapped), products
        assert not contraction_identity_holds(alg)


def test_partition_function_one_dimensional_matches_z_x():
    x = [Fraction(3), Fraction(5, 7), Fraction(-2)]
    alg = one_dimensional_algebra(x, 8)
    for g in enumerate_graphs(8):
        og = OrientedRibbonGraph(g, 1)
        assert partition_function(alg, og) == z_x(x, og)


def test_z_x_values():
    x = [Fraction(2), Fraction(3)]
    og = OrientedRibbonGraph(theta(), 1)
    # trivalent, chi = -1: o * x0^2
    assert z_x(x, og) == 4
    g5 = enumerate_graphs(8, valences=(5, 3))[0]
    # one 5-valent vertex, chi = -2: x0^(4-3) * x1
    assert z_x(x, OrientedRibbonGraph(g5, 1)) == 2 * 3
    f8 = build_graph([(1, 2, 3, 4)], [(1, 2), (3, 4)])
    assert z_x(x, OrientedRibbonGraph(f8, 1)) == 0


def presented(og, starts):
    """`og` relabelled so that its reference choices read the vertices
    from `starts`, one half-edge per vertex, in that order: the i-th
    start gets label i and the other half-edges labels >= V.  The
    orientation is transported along the relabelling."""
    g = og.graph
    phi = {h: i for i, h in enumerate(starts)}
    rest = [h for h in g.half_edges if h not in phi]
    phi.update((h, len(starts) + j) for j, h in enumerate(rest))
    g2 = build_graph([tuple(phi[h] for h in c) for c in g.vertices],
                     [(phi[a], phi[b]) for a, b in g.edges()])
    return OrientedRibbonGraph(g2, og.sign * transport_sign(g, g2, phi))


def test_partition_function_invariance_under_presentation():
    # every presentation of a theta graph has transport sign +1; the class
    # with two 4-valent vertices (value -4 for `odd_rank_three`) also has
    # presentations of sign -1, whose value changes if the sign is dropped
    two_four_valent = graph_from_key((((0, 1, 2, 3), (4, 6, 5, 7)),
                                      ((0, 1), (2, 4), (3, 5), (6, 7))))
    cases = [(odd_grassmann_pairing(), theta(True), 6),
             (odd_grassmann_pairing(), theta(False), 6),
             (odd_rank_three(), two_four_valent, 12)]
    rng = random.Random(7)
    signs = []
    for alg, g, count in cases:
        og = OrientedRibbonGraph(g, 1)
        base = partition_function(alg, og)
        assert base != 0
        cycles = list(g.vertices)
        for _ in range(count):
            order = cycles[:]
            rng.shuffle(order)
            starts = [rng.choice(c) for c in order]
            other = presented(og, starts)
            signs.append(other.sign)
            assert partition_function(alg, other) == base
    assert -1 in signs


def test_partition_function_invariance_under_basis_change():
    x = [Fraction(1), Fraction(4)]
    alg = one_dimensional_algebra(x, 6)
    scaled = alg.change_basis([[Fraction(2)]])
    og = OrientedRibbonGraph(theta(), 1)
    assert partition_function(alg, og) == partition_function(scaled, og)

    odd = odd_grassmann_pairing()
    mix = [
        [1, 0, 0, 0],
        [0, 2, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 3],
    ]
    changed = odd.change_basis(mix)
    assert changed.products != odd.products
    for g in [theta(True), theta(False)]:
        og = OrientedRibbonGraph(g, 1)
        value = partition_function(odd, og)
        assert value != 0
        assert partition_function(changed, og) == value


def test_partition_function_sign_linearity():
    alg = odd_grassmann_pairing()
    for g in [theta(True), theta(False)]:
        og = OrientedRibbonGraph(g, 1)
        value = partition_function(alg, og)
        assert value != 0
        assert value == -partition_function(alg, reversed_orientation(og))


def test_partition_function_matches_brute_force_reference():
    broken = AInfinityAlgebra([0], [[1]], {2: {(0, 0): {0: 2}}, 3: {(0, 0, 0): {0: 1}}},
                              strict=False)
    dense, basis = dense_rank_two(3)
    dense = dense.change_basis(basis)
    # grassmann_two vanishes on every class within 6 half-edges
    cases = [
        (one_dimensional_algebra([Fraction(3), Fraction(5, 7), Fraction(-2)], 8), 8, True),
        (broken, 8, True),
        (grassmann_two(), 6, False),
        (dense, 8, True),
        (odd_rank_three(), 8, True),
    ]
    for alg, bound, nonzero in cases:
        values = []
        for g in enumerate_graphs(bound):
            for sign in (1, -1):
                og = OrientedRibbonGraph(g, sign)
                value = partition_function(alg, og)
                assert value == reference_partition_function(alg, og)
                values.append(value)
        assert any(values) == nonzero
    # the denominators of dense's m_6 and m_8 differ from those of m_2 and
    # m_4, and they first act past 8 half-edges: at a 7- or a 9-valent
    # vertex joined to a trivalent one by three edges
    for big in (7, 9):
        g = build_graph([tuple(range(big)), (big, big + 1, big + 2)],
                        [(0, big), (1, big + 1), (2, big + 2)]
                        + [(h, h + 1) for h in range(3, big, 2)])
        og = OrientedRibbonGraph(g, 1)
        value = partition_function(dense, og)
        assert value and value == reference_partition_function(dense, og)


def test_partition_function_matches_reference_in_random_presentations():
    rng = random.Random(11)
    dense, basis = dense_rank_two(5)
    for alg in (odd_rank_three(), dense.change_basis(basis)):
        nonzero = 0
        for g in enumerate_graphs(8):
            og = OrientedRibbonGraph(g, rng.choice((1, -1)))
            order = list(g.vertices)
            rng.shuffle(order)
            starts = [rng.choice(c) for c in order]
            value = partition_function(alg, presented(og, starts))
            assert value == reference_partition_function(
                alg, og, order, {tuple(sorted(c)): s for c, s in zip(order, starts)})
            nonzero += value != 0
        assert nonzero


def test_vertex_tables_are_built_once_per_algebra():
    dense, basis = dense_rank_two(5)
    makers = (odd_rank_three, lambda: dense.change_basis(basis))
    graphs = enumerate_graphs(8)
    for make in makers:
        warm = make()
        assert warm._tables == {}
        oriented = [OrientedRibbonGraph(g, sign) for g in graphs for sign in (1, -1)]
        first = [partition_function(warm, og) for og in oriented]
        built = dict(warm._tables)
        assert built and any(first)
        for og, value in zip(oriented, first):
            assert partition_function(warm, og) == value == partition_function(make(), og)
        # the second pass reads every table from the cache
        assert warm._tables.keys() == built.keys()
        assert all(warm._tables[key] is table for key, table in built.items())
    # a change of basis of a warm algebra starts with no tables
    assert warm._tables and warm.change_basis(basis)._tables == {}
    # odd_rank_three has no m_5: a 6-valent vertex gives 0, built or cached
    alg = odd_rank_three()
    six = [OrientedRibbonGraph(g, 1) for g in graphs if 6 in g.valences()]
    for _ in range(2):
        for og in six:
            assert partition_function(alg, og) == 0 == reference_partition_function(alg, og)
    empty = [table for (valence, _), table in alg._tables.items() if valence == 6]
    assert six and empty and not any(empty)


def test_change_basis_matches_reference():
    mix = [
        [1, 0, 0, 0],
        [0, 2, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 3],
    ]
    plain = [[1, 0, 0], [0, 2, 1], [0, 1, 1]]
    # P's denominators are 2, 3 and 5, those of its inverse 7
    thirds = [
        [Fraction(1, 2), 0, 0],
        [0, Fraction(2, 3), Fraction(1, 5)],
        [0, 1, 1],
    ]
    # gl(2|1): E_00, E_01, E_10, E_11 and E_22 are even, the rest odd
    gl = matrix_superalgebra([0, 0, 1])
    gl_basis = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]
    gl_basis[0][1], gl_basis[3][8], gl_basis[2][5], gl_basis[7][6] = 1, Fraction(1, 2), -1, 2
    m3 = graded_cyclic_algebra([0, 1, 1, 0], GRASSMANN_PAIRING, (2, 3), 4)
    m3_basis = [[1, 0, 0, Fraction(1, 3)], [0, Fraction(3, 4), 2, 0],
                [0, -1, Fraction(1, 5), 0], [Fraction(2, 7), 0, 0, 1]]
    dense, basis = dense_rank_two(3)
    assert 3 in m3.products and 3 in odd_rank_three().products
    for alg, matrix in ((grassmann_two(), mix), (odd_grassmann_pairing(), mix),
                        (odd_rank_three(), plain),
                        (odd_rank_three(), thirds), (gl, gl_basis), (m3, m3_basis),
                        (dense, basis)):
        changed = alg.change_basis(matrix)
        want = reference_change_basis_products(alg, matrix)
        assert changed.products == want
        assert changed.products != alg.products
        # the integer path gives the constructor's scaled tables exactly
        assert changed._scaled == AInfinityAlgebra(
            changed.parities, changed.pairing, want)._scaled
        # and P^-1 takes it back to the same tables
        assert changed.change_basis(matrix_inverse(matrix))._scaled == alg._scaled
    assert max(dense.change_basis(basis).products) == 8
    # the result is validated strictly: the injected m_3 is not
    # homogeneous and cross_cancelling has an m_1; then a basis mixing parities
    with pytest.raises(InvalidAlgebra):
        AInfinityAlgebra([0], [[1]], {3: {(0, 0, 0): {0: 1}}},
                         strict=False).change_basis([[2]])
    with pytest.raises(InvalidAlgebra):
        cross_cancelling().change_basis([[1, 0], [0, 1]])
    with pytest.raises(InvalidAlgebra):
        grassmann_two().change_basis([[1, 1, 0, 0], [0, 1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]])


def test_change_basis_rejects_a_matrix_of_the_wrong_size_or_rank():
    for alg in (one_dimensional_algebra([1, 4], 6), AInfinityAlgebra([0], [[1]], {})):
        for matrix in ([[1, 1], [1, 2]], [[1, 0]], [[1], [0]], [[0]]):
            with pytest.raises(InvalidAlgebra):
                alg.change_basis(matrix)
    with pytest.raises(InvalidAlgebra):
        grassmann_two().change_basis([[1, 0, 0, 0], [0, 1, 1, 0], [0, 2, 2, 0], [0, 0, 0, 1]])


def test_change_basis_builds_no_fraction_per_entry(monkeypatch):
    # dense_rank_two(8) has m_k on 340 basis tuples after the change, each
    # with two outputs
    alg, basis = dense_rank_two(8)
    built = []

    class Counting(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(ainfinity, "Fraction", Counting)
    changed = alg.change_basis(basis)
    monkeypatch.undo()
    assert sum(len(table) for _, table in changed._scaled[2].values()) == 680
    # the matrix and the new scalar product: 4 entries each
    assert len(built) <= 24


def test_check_partition_cocycle_one_dimensional():
    x = [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(1)]
    alg = one_dimensional_algebra(x, 10)
    [report] = check_partition_cocycle([alg], ClassCorpus(10))
    assert report and all(v == 0 for _, v in report)


def test_check_partition_cocycle_grassmann_small():
    corpus = [g for g in enumerate_graphs(4) if g.codimension >= 1]
    gl21 = matrix_superalgebra([0, 0, 1])
    reports = check_partition_cocycle([grassmann_two(), gl21, odd_grassmann_pairing()],
                                      ClassCorpus(4))
    assert [len(r) for r in reports] == [len(corpus)] * 3
    assert all(v == 0 for report in reports[:2] for _, v in report)
    # gl(2|1) has odd elements and kills the boundaries by cancellation
    boundary_values = [partition_function(gl21, OrientedRibbonGraph(graph_from_key(key), 1))
                       for g in corpus for key in d_integral(OrientedRibbonGraph(g, 1)).terms]
    assert boundary_values and all(boundary_values)
    # the seeded odd algebra is not associative, and the check sees it
    assert verify_ainfinity(odd_grassmann_pairing(), 3)
    assert any(v for _, v in reports[2])


def test_check_partition_cocycle_matches_per_class_boundaries():
    x = [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(1)]
    # the last two algebras are no A-infinity algebras, so their values are not all 0
    broken = AInfinityAlgebra([0], [[1]], {2: {(0, 0): {0: 2}}, 3: {(0, 0, 0): {0: 1}}},
                              strict=False)
    cases = ((one_dimensional_algebra(x, 10), 10), (grassmann_two(), 4), (broken, 8),
             (odd_rank_three(), 6))

    def want(alg, corpus):
        return [(g.literal(), partition_function_chain(alg, d_integral(OrientedRibbonGraph(g, 1))))
                for g in corpus]

    for alg, bound in cases:
        corpus = [g for g in enumerate_graphs(bound) if g.codimension >= 1]
        assert check_partition_cocycle([alg], ClassCorpus(bound)) == [want(alg, corpus)]
    # several algebras on one corpus
    corpus = [g for g in enumerate_graphs(6) if g.codimension >= 1]
    algebras = [alg for alg, _ in cases]
    wants = [want(alg, corpus) for alg in algebras]
    assert check_partition_cocycle(algebras, ClassCorpus(6)) == wants
    assert any(value for _, value in wants[2]) and any(value for _, value in wants[3])


def _bounded_partitions(budget):
    """Partitions (any weight) with sum of (2 p + 1) over parts <= budget,
    enumerated part by part."""
    out = [()]

    def rec(prefix, largest, left):
        for p in range(largest, 0, -1):
            cost = 2 * p + 1
            if cost <= left:
                cur = prefix + (p,)
                out.append(cur)
                rec(cur, p, left - cost)
    rec((), (budget - 1) // 2 if budget >= 3 else 0, budget)
    return out


def _reference_zx_expansion_check(x, graphs):
    """zx_expansion_check as it was: each graph keyed again by chain_of,
    and its partitions enumerated by their cost."""
    x = [Fraction(v) for v in x]
    report = []
    for g in graphs:
        chain = chain_of(OrientedRibbonGraph(g, 1))
        lhs = z_x_chain(x, chain)
        chi = g.euler_characteristic
        rhs = Fraction(0)
        for lam in _bounded_partitions(-2 * chi):
            r0 = -2 * chi - sum(2 * p + 1 for p in lam)
            if r0 < 0 or any(p >= len(x) for p in lam):
                continue
            y = x[0] ** r0
            for p in lam:
                y *= x[p]
            rhs += y * eval_w(lam, chain)
        report.append((g.literal(), lhs, rhs))
    return report


def test_zx_expansion_check():
    x = [Fraction(3), Fraction(-1, 2), Fraction(7, 3)]
    corpus = ClassCorpus(8)
    report = zx_expansion_check(x, corpus)
    assert report
    for _, lhs, rhs in report:
        assert lhs == rhs
    assert report == _reference_zx_expansion_check(x, corpus.graphs())
    with pytest.raises(ZeroX0):
        zx_expansion_check([0, 1], corpus)


def test_z_x_chain_on_boundary_vanishes():
    x = [Fraction(1), Fraction(2), Fraction(3)]
    for g in enumerate_graphs(8):
        if g.codimension < 1:
            continue
        assert z_x_chain(x, d_integral(OrientedRibbonGraph(g, 1))) == 0

