import random
from fractions import Fraction

import pytest

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
from fatcomplex.graph_complex import d_integral, enumerate_graphs
from fatcomplex.ribbon import OrientedRibbonGraph, build_graph


def grassmann_two():
    """The rank-4 superalgebra on 1, t1, t2, t1 t2 with the top-degree
    coefficient pairing; m_2 is the product."""
    parities = [0, 1, 1, 0]
    pairing = [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ]
    mul = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
        (1, 2): {3: 1}, (2, 1): {3: -1},
    }
    return AInfinityAlgebra(parities, pairing, {2: mul})


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


def test_strict_validation_rejects_inhomogeneous_m3():
    with pytest.raises(InvalidAlgebra):
        AInfinityAlgebra([0], [[1]], {3: {(0, 0, 0): {0: 1}}})


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


def test_partition_function_invariance_under_presentation():
    alg = grassmann_two()
    g = theta(planar=False)
    og = OrientedRibbonGraph(g, 1)
    base = partition_function(alg, og)
    rng = random.Random(7)
    cycles = list(g.vertices)
    for _ in range(6):
        order = cycles[:]
        rng.shuffle(order)
        starts = {tuple(sorted(c)): rng.choice(c) for c in cycles}
        assert partition_function(alg, og, vertex_order=order, starts=starts) == base


def test_partition_function_invariance_under_basis_change():
    x = [Fraction(1), Fraction(4)]
    alg = one_dimensional_algebra(x, 6)
    scaled = alg.change_basis([[Fraction(2)]])
    og = OrientedRibbonGraph(theta(), 1)
    assert partition_function(alg, og) == partition_function(scaled, og)

    gr = grassmann_two()
    mix = [
        [1, 0, 0, 0],
        [0, 2, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 3],
    ]
    changed = gr.change_basis(mix)
    for g in [theta(True), theta(False)]:
        og = OrientedRibbonGraph(g, 1)
        assert partition_function(gr, og) == partition_function(changed, og)


def test_partition_function_sign_linearity():
    alg = grassmann_two()
    og = OrientedRibbonGraph(theta(False), 1)
    assert partition_function(alg, og) == -partition_function(alg, og.reversed())


def test_check_partition_cocycle_one_dimensional():
    x = [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(1)]
    alg = one_dimensional_algebra(x, 10)
    corpus = [g for g in enumerate_graphs(10) if g.codimension >= 1]
    report = check_partition_cocycle(alg, corpus)
    assert report and all(v == 0 for _, v in report)


def test_check_partition_cocycle_grassmann_small():
    alg = grassmann_two()
    corpus = [g for g in enumerate_graphs(4) if g.codimension >= 1]
    report = check_partition_cocycle(alg, corpus)
    assert report and all(v == 0 for _, v in report)


def test_check_partition_cocycle_matches_per_class_boundaries():
    x = [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(1)]
    # the last algebra is no A-infinity algebra, so its values are not all 0
    broken = AInfinityAlgebra([0], [[1]], {2: {(0, 0): {0: 2}}, 3: {(0, 0, 0): {0: 1}}},
                              strict=False)
    for alg, bound in ((one_dimensional_algebra(x, 10), 10), (grassmann_two(), 4),
                       (broken, 8)):
        corpus = [g for g in enumerate_graphs(bound) if g.codimension >= 1]
        want = [(g.literal(), partition_function_chain(alg, d_integral(OrientedRibbonGraph(g, 1))))
                for g in corpus]
        assert check_partition_cocycle(alg, corpus) == want
    assert any(value for _, value in want)


def test_zx_expansion_check():
    x = [Fraction(3), Fraction(-1, 2), Fraction(7, 3)]
    corpus = enumerate_graphs(8)
    report = zx_expansion_check(x, corpus)
    assert report
    for _, lhs, rhs in report:
        assert lhs == rhs
    with pytest.raises(ZeroX0):
        zx_expansion_check([0, 1], corpus)


def test_z_x_chain_on_boundary_vanishes():
    x = [Fraction(1), Fraction(2), Fraction(3)]
    for g in enumerate_graphs(8):
        if g.codimension < 1:
            continue
        assert z_x_chain(x, d_integral(OrientedRibbonGraph(g, 1))) == 0


def test_algebra_json_roundtrip():
    alg = grassmann_two()
    data = alg.to_json()
    back = AInfinityAlgebra.from_json(data)
    assert back.parities == alg.parities
    assert back.pairing == alg.pairing
    assert back.products == alg.products
