import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from fatcomplex import coefficients
from fatcomplex.coefficients import (
    MAX_WEIGHT,
    CheckResult,
    MmmPolynomial,
    OutOfComputedRange,
    a_matrix,
    b_general,
    b_matrix,
    b_single,
    b_single_all,
    closed_form_a_diagonal,
    closed_form_b_diagonal,
    closed_form_checks,
    compositions_of,
    double_factorial,
    first_two_terms,
    format_rational,
    monomial_text,
    normalize_partition,
    parse_partition,
    partitions_of,
    refinements,
    w_polynomial,
)
from fatcomplex.ribbon import word_parity
from fatcomplex.trees import (
    dihedral_orbits,
    face_count,
    face_layout,
    face_sets,
    one_sided,
)
from reference import (
    PlanarTree,
    branch_intervals,
    canonical_tree,
    cup_product,
    cut_intervals,
    face_bits,
    reference_faces,
    reference_trivalent_trees,
    reference_windows,
    region_touch_sets,
    tree_chains,
    trivalent_trees,
)
from test_trees import order_sign


def matrix_multiply(a, b):
    if not a or not b:
        return []
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def rotate_leaves(tree):
    """The tree with leaf i relabelled i+1 mod the leaf count; internal
    half-edges keep their labels."""
    L = tree.leaf_count
    cycles = [tuple(x if x in tree.pairing else (x + 1) % L for x in c)
              for c in tree.vertices]
    return PlanarTree(L, cycles, tree.internal_edges())


def scan_face(face, m):
    """The face scan of one seed, given as its top face, with weight 1."""
    return coefficients._scan_orbits((m, [(face, 1)]))


def scan_seed(seed, m):
    """The face scan of one seed tree with weight 1."""
    return scan_face(face_bits(seed), m)


def test_partitions_of_descending_lex():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("1, 2") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition("1,0", allow_zero=True) == (1, 0)
    with pytest.raises(ValueError):
        parse_partition("1,0")


def test_b_single_weight_one_and_two():
    assert b_single((1,)) == Fraction(1, 12)
    assert b_single((2,)) == Fraction(-1, 120)
    assert b_single((1, 1)) == Fraction(29, 720)


def test_b_single_matches_closed_form_diagonal():
    for m in (1, 2):
        assert b_single((m,)) == closed_form_b_diagonal(m)


def test_b_single_workers_agree():
    from fatcomplex.coefficients import _B_SINGLE_CACHE
    serial = dict(b_single_all(2))
    _B_SINGLE_CACHE.pop(2, None)
    parallel = b_single_all(2, workers=2)
    assert serial == parallel


def _rotations(tree, count):
    out = [tree]
    for _ in range(count - 1):
        out.append(rotate_leaves(out[-1]))
    return out


def _orbit_key(tree):
    return min(canonical_tree(t).literal() for t in _rotations(tree, tree.leaf_count))


def _reflect_leaves(tree):
    """Leaf i relabelled -i mod the leaf count, vertex cycles reversed."""
    L = tree.leaf_count
    cycles = [tuple(x if x in tree.pairing else -x % L for x in reversed(c))
              for c in tree.vertices]
    return PlanarTree(L, cycles, tree.internal_edges())


def _rotation_orbits(leaf_count):
    """Trivalent trees up to the leaf rotation i -> i+1 mod leaf_count, as
    [(representative, orbit size)]; the representative of an orbit is its
    first member in `trivalent_trees` order.  A rotation moves
    every cut interval one leaf on."""
    seen = set()
    out = []
    for seed in trivalent_trees(leaf_count):
        key = cut_intervals(seed)
        if key in seen:
            continue
        orbit = {frozenset(one_sided(first + r, size, leaf_count) for first, size in key)
                 for r in range(leaf_count)}
        seen |= orbit
        out.append((seed, len(orbit)))
    return out


def _reference_rotation_orbits(leaf_count):
    """The rotation orbits listed by canonical literals, one per rotation
    of every tree from the reference generator: the listing
    `_rotation_orbits` replaced."""
    seen = set()
    out = []
    for seed in reference_trivalent_trees(leaf_count):
        if canonical_tree(seed).literal() in seen:
            continue
        orbit = {canonical_tree(t).literal() for t in _rotations(seed, leaf_count)}
        seen |= orbit
        out.append((seed, len(orbit)))
    return out


def _reference_dihedral_orbits(leaf_count):
    """The dihedral orbits listed by canonical literals, one per rotation
    of every tree from the reference generator and of its mirror."""
    seen = set()
    out = []
    for seed in reference_trivalent_trees(leaf_count):
        if canonical_tree(seed).literal() in seen:
            continue
        orbit = {canonical_tree(t).literal()
                 for s in (seed, _reflect_leaves(seed)) for t in _rotations(s, leaf_count)}
        seen |= orbit
        out.append((seed, len(orbit)))
    return out


def test_rotation_orbits_partition_the_seed_trees():
    # the orbit sizes sum to Catalan(leaves - 2), the number of seeds
    for leaves, count, sizes, seeds in ((5, 1, {5}, 5), (7, 6, {7}, 42), (9, 49, {3, 9}, 429),
                                        (11, 442, {11}, 4862)):
        orbits = _rotation_orbits(leaves)
        assert len(orbits) == count
        assert {size for _, size in orbits} == sizes
        assert sum(size for _, size in orbits) == seeds
        # the same representatives, each the first seed of its orbit, and sizes
        assert orbits == _reference_rotation_orbits(leaves)


def test_dihedral_orbits_partition_the_seed_trees():
    # the orbits `b_single_all` scans; the orbit sizes sum to Catalan(leaves - 2)
    for leaves, count, sizes, seeds in ((5, 1, {5}, 5), (7, 4, {7, 14}, 42),
                                        (9, 27, {6, 9, 18}, 429), (11, 228, {11, 22}, 4862),
                                        (13, 2282, {13, 26}, 58786)):
        orbits = dihedral_orbits(leaves)
        assert len(orbits) == count
        assert {size for _, size in orbits} == sizes
        assert sum(size for _, size in orbits) == seeds
        if leaves == 13:
            # counts only: the reference listing is too slow at 13 leaves
            assert [size for _, size in orbits].count(13) == 42
            continue
        # the same representatives, as top faces, in the same order
        assert orbits == [(face_bits(seed), size)
                          for seed, size in _reference_dihedral_orbits(leaves)]


def test_dihedral_orbits_keep_little_in_memory():
    # faces are ints: listing the 4862 trees with 11 leaves peaks below
    # 4 MiB, where a frozenset of interval tuples per face took 10 MiB
    tracemalloc.start()
    try:
        dihedral_orbits(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_per_seed_sums_agree_across_rotation_orbits_k2_k4():
    for m in (1, 2):
        by_orbit = {}
        for seed in trivalent_trees(2 * m + 3):
            sums = scan_seed(seed, m)
            assert scan_seed(rotate_leaves(seed), m) == sums
            by_orbit.setdefault(_orbit_key(seed), []).append(sums)
        for members in by_orbit.values():
            assert all(sums == members[0] for sums in members)


def test_per_seed_sums_agree_across_rotation_orbits_k6():
    # both orbits of size 3 and the first two of size 9
    orbits = _rotation_orbits(9)
    picked = [o for o in orbits if o[1] == 3] + [o for o in orbits if o[1] == 9][:2]
    assert len(picked) == 4
    for rep, size in picked:
        members = _rotations(rep, size)
        assert len({canonical_tree(t).literal() for t in members}) == size
        sums = scan_seed(rep, 3)
        assert any(sums.values())
        for t in members[1:]:
            assert scan_seed(t, 3) == sums


def test_per_seed_sums_invariant_under_reflection_k4():
    for seed in trivalent_trees(7):
        assert scan_seed(_reflect_leaves(seed), 2) == scan_seed(seed, 2)


def test_per_seed_sums_invariant_under_reflection_k6_k8():
    # with rotation invariance, the 49 rotation orbits cover every K^6 seed
    orbits = _rotation_orbits(9)
    assert len(orbits) == 49
    for rep, _ in orbits:
        sums = scan_seed(rep, 3)
        assert scan_seed(_reflect_leaves(rep), 3) == sums
    orbits = _rotation_orbits(11)
    for i in (0, 100, 441):
        rep = orbits[i][0]
        assert scan_seed(_reflect_leaves(rep), 4) == scan_seed(rep, 4)


def test_reflection_has_degree_minus_one_to_the_m():
    # the chain-sign factors the module docstring derives: 1 under the
    # rotation and (-1)^m under the reflection, on every chain of K^2 and
    # K^4 and on the reference-order chain of every K^6 seed
    for leaves in (5, 7, 9):
        m = (leaves - 3) // 2
        for seed in trivalent_trees(leaves):
            edges = seed.internal_edges()
            for order in (permutations(edges) if leaves < 9 else [edges]):
                sign = order_sign(seed, order)
                assert order_sign(rotate_leaves(seed), order) == sign
                assert order_sign(_reflect_leaves(seed), order) == (-1) ** m * sign


def test_dihedral_scan_matches_rotation_orbit_scan(monkeypatch):
    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    for m in (1, 2, 3):
        totals = dict.fromkeys(compositions_of(m), 0)
        for rep, size in _rotation_orbits(2 * m + 3):
            for comp, v in scan_seed(rep, m).items():
                totals[comp] += size * v
        assert b_single_all(m) == coefficients._b_from_totals(m, totals)


def _composition_windows(comp):
    out = []
    at = 0
    for part in comp:
        out.append((at, at + 2 * part))
        at += 2 * part
    return tuple(out)


def _bits(x):
    out = []
    i = 0
    while x:
        if x & 1:
            out.append(i)
        x >>= 1
        i += 1
    return out


def _scaled_cz(c0, deltas, scale, cache):
    """`scale` times the adjusted cyclic-set cocycle of a chain of region
    bitmasks, as an exact int; raises ArithmeticError when it is not one."""
    key = (c0, deltas)
    val = cache.get(key)
    if val is not None:
        return val
    levels = [_bits(c0)] + [_bits(d) for d in deltas]
    total = 0
    for tup in product(*levels):
        total += word_parity(tup, sorted(tup))
    val = 0
    if total:
        k = len(deltas) // 2
        denom = (-2) ** (k + 1) * double_factorial(2 * k - 1)
        size = c0.bit_count()
        denom *= size
        for d in deltas:
            size += d.bit_count()
            denom *= size
        val, rem = divmod(total * scale, denom)
        if rem:
            raise ArithmeticError("scaled cocycle value %d*%d/%d is not an integer"
                                  % (total, scale, denom))
    cache[key] = val
    return val


def _reference_scan_seed(seed, m):
    """The unpruned chain scan: every collapse order of the seed is walked
    to a leaf, whatever its window values."""
    comp_windows = {comp: _composition_windows(comp) for comp in compositions_of(m)}
    totals = dict.fromkeys(comp_windows, 0)
    edges = seed.internal_edges()
    nedges = len(edges)
    verts = list(seed.vertices)
    vertex_of = {}
    for i, c in enumerate(verts):
        for x in c:
            vertex_of[x] = i
    endpoints = [(vertex_of[a], vertex_of[b]) for a, b in edges]
    touch = region_touch_sets(seed)
    base_masks = [sum(1 << r for r in touch[i]) for i in range(len(verts))]
    s0 = order_sign(seed, edges)

    windows = sorted({w for ws in comp_windows.values() for w in ws})
    scale_of = {w: coefficients._part_scale((w[1] - w[0]) // 2, seed.leaf_count)
                for w in windows}
    opens_at = {}
    for w in windows:
        opens_at.setdefault(w[0], []).append(w)
    cz_cache = {}

    def window_value(win, entries):
        total = 0
        for _, c0, _, deltas in entries:
            weight = c0.bit_count() - 2
            if weight:
                total += weight * _scaled_cz(c0, deltas, scale_of[win], cz_cache)
        return total

    def recurse(depth, remaining, sgn, rep, masks, tracks, wvals):
        step = depth + 1
        for idx in range(len(remaining)):
            ei = remaining[idx]
            sgn2 = sgn if idx % 2 == 0 else -sgn
            u, w = endpoints[ei]
            ru, rw = rep[u], rep[w]
            mu, mw = masks[ru], masks[rw]
            merged = mu | mw
            rep2 = [ru if r == rw else r for r in rep]
            masks2 = dict(masks)
            masks2[ru] = merged
            del masks2[rw]

            tracks2 = {}
            wvals2 = dict(wvals)
            for win, tlist in tracks.items():
                live = []
                for trep, c0, cur, deltas in tlist:
                    if trep == ru:
                        live.append((ru, c0, merged, deltas + (mw & ~mu,)))
                    elif trep == rw:
                        live.append((ru, c0, merged, deltas + (mu & ~mw,)))
                if win[1] == step:
                    wvals2[win] = window_value(win, live)
                else:
                    tracks2[win] = live
            for win in opens_at.get(step - 1, ()):
                seeded = [(ru, mu, merged, (mw & ~mu,)),
                          (ru, mw, merged, (mu & ~mw,))]
                if win[1] == step:
                    wvals2[win] = window_value(win, seeded)
                else:
                    tracks2[win] = seeded

            rest = remaining[:idx] + remaining[idx + 1:]
            if rest:
                recurse(depth + 1, rest, sgn2, rep2, masks2, tracks2, wvals2)
            else:
                for comp, wins in comp_windows.items():
                    prod = s0 * sgn2
                    for win in wins:
                        prod *= wvals2[win]
                    totals[comp] += prod

    rep0 = list(range(len(verts)))
    masks0 = {i: base_masks[i] for i in range(len(verts))}
    recurse(0, list(range(nedges)), 1, rep0, masks0, {}, {})
    return totals


def test_pruned_scan_matches_reference_on_every_k2_k4_seed():
    # the face scan of one seed against the unpruned scan
    seeds = trivalent_trees(5) + trivalent_trees(7)
    assert len(seeds) == 5 + 42
    nonzero = 0
    for seed in seeds:
        m = (seed.leaf_count - 3) // 2
        want = _reference_scan_seed(seed, m)
        assert scan_seed(seed, m) == want
        nonzero += any(want.values())
    assert nonzero


def test_pruned_scan_matches_reference_on_k6_orbits():
    orbits = _rotation_orbits(9)
    assert len(orbits) == 49
    # the first seed of a dihedral orbit is the first of its rotation orbit
    reps = [face_bits(rep) for rep, _ in orbits]
    assert all(rep in reps for rep, _ in dihedral_orbits(9))
    totals = dict.fromkeys(compositions_of(3), 0)
    for rep, size in orbits:
        want = _reference_scan_seed(rep, 3)
        assert scan_seed(rep, 3) == want
        for comp, v in want.items():
            totals[comp] += size * v
    # the reference totals give the frozen weight-3 numbers
    assert coefficients._b_from_totals(3, totals) == {
        (3,): Fraction(1, 1680), (2, 1): Fraction(-19, 3360),
        (1, 2): Fraction(-19, 3360), (1, 1, 1): Fraction(263, 6720)}


def test_pruned_scan_matches_reference_on_k8_orbits():
    orbits = dihedral_orbits(11)
    seeds = {face_bits(t): t for t in trivalent_trees(11)}
    nonzero = 0
    for i in (0, 100, 227):
        want = _reference_scan_seed(seeds[orbits[i][0]], 4)
        assert scan_face(orbits[i][0], 4) == want
        nonzero += any(want.values())
    assert nonzero


def _assert_windows_match_the_walk(face, k, leaf_count):
    """`_windows` against the recursive walk, which keeps the end faces
    whose orders cancel; returns both entry counts."""
    want = reference_windows(face, k, leaf_count)
    got = coefficients._windows(face, k, leaf_count)
    assert all(got.values())
    assert got == {end: value for end, value in want.items() if value}
    return len(want), len(got)


def test_windows_match_the_walk_on_every_face_of_k2_to_k6():
    for n in range(2, 7):
        L = n + 3
        pairs, counts = 0, [0, 0]
        for j in range(n + 1):
            for face in face_sets(n, j):
                for k in range(1, face.bit_count() // 2 + 1):
                    for i, count in enumerate(_assert_windows_match_the_walk(face, k, L)):
                        counts[i] += count
                    pairs += 1
        if n == 5:
            # 32 end faces of the walk cancel to 0
            assert counts == [2912, 2880]
    assert pairs == 7881


def test_windows_match_the_walk_on_the_faces_of_three_k8_seeds():
    L = 11
    orbits = dihedral_orbits(L)
    for i in (0, 100, 227):
        codes = face_layout(orbits[i][0], L)[0]
        for sub in range(1 << len(codes)):
            face = sum(code for j, code in enumerate(codes) if sub >> j & 1)
            for k in range(1, sub.bit_count() // 2 + 1):
                _assert_windows_match_the_walk(face, k, L)


def test_face_layout_matches_the_tree_of_every_face_of_k1_to_k6():
    # the layout read off a face's bitmask against the planar tree itself,
    # from the reference generator
    count = 0
    for n in range(1, 7):
        L = n + 3
        for tree in (t for k in range(n + 1) for t in reference_faces(n, k)):
            iv = branch_intervals(tree)
            # each edge's interval away from leaf 0, and the half-edge whose
            # branch it is
            key = {iv[h]: h for e in tree.internal_edges() for h in e
                   if 0 < iv[h][0] <= L - iv[h][1]}
            assert len(key) == len(tree.internal_edges())
            face = sum(1 << first * L + size for first, size in key)
            codes, ends, masks, incident = face_layout(face, L)
            assert codes == [1 << first * L + size for first, size in sorted(key)]
            touch = region_touch_sets(tree)
            tree_masks = [sum(1 << r for r in touch[i]) for i in range(len(touch))]
            assert sorted(masks) == sorted(tree_masks)
            vertex = [tree_masks.index(x) for x in masks]
            of = {x: i for i, c in enumerate(tree.vertices) for x in c}
            assert vertex[0] == of[0]
            for i, (first, size) in enumerate(sorted(key)):
                # the child roots the branch away from leaf 0
                h = key[first, size]
                parent, child = of[h], of[tree.pairing[h]]
                assert (vertex[ends[i][0]], vertex[ends[i][1]]) == (parent, child)
            for v, mask in enumerate(incident):
                assert mask == sum(1 << i for i, e in enumerate(ends) if v in e)
            count += 1
    # the little Schroeder numbers 3 + 11 + 45 + 197 + 903 + 4279
    assert count == sum(face_count(n, k) for n in range(1, 7) for k in range(n + 1)) == 5438


def test_shard_scan_is_the_sum_of_its_seed_scans():
    # seeds of one shard share their window sums by face, whatever seed
    # reaches a face first
    k8 = dihedral_orbits(11)
    k6 = dihedral_orbits(9)
    for m, orbits in ((3, k6), (3, k6[::-1]),
                      (4, [k8[i] for i in (0, 1, 2, 3, 100, 227)])):
        want = dict.fromkeys(compositions_of(m), 0)
        for top, size in orbits:
            for comp, v in scan_face(top, m).items():
                want[comp] += size * v
        assert coefficients._scan_orbits((m, orbits)) == want


def test_scan_builds_no_tree_and_collapses_nothing(monkeypatch):
    # a seed is its top face and its sign comes from the region rule on
    # the face layout, so the frozen numbers need no tree and no collapse
    from fatcomplex import ribbon, trees

    def forbidden(*args):
        raise AssertionError("the scan built a tree or collapsed an edge")

    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    monkeypatch.setattr(trees, "tree_from_face", forbidden)
    monkeypatch.setattr(ribbon, "collapse_oriented", forbidden)
    assert b_single_all(1) == {(1,): Fraction(1, 12)}
    assert b_single_all(2) == {(2,): Fraction(-1, 120), (1, 1): Fraction(29, 720)}
    assert b_single_all(3) == {
        (3,): Fraction(1, 1680), (2, 1): Fraction(-19, 3360),
        (1, 2): Fraction(-19, 3360), (1, 1, 1): Fraction(263, 6720)}


def test_scan_matches_fraction_cocycle_over_maximal_chains():
    # the integer bitmask scan (region model) against the Fraction path
    # through `corner_chain`, `cyclic_sign` and `cz` (corner model),
    # chain by chain
    for m, count in ((1, 10), (2, 1008)):
        chains = tree_chains(2 * m)
        assert len(chains) == count
        want = {comp: (-1) ** m * sum(sign * cup_product(comp, simplex)
                                      for simplex, sign in chains)
                for comp in compositions_of(m)}
        assert all(want.values())
        assert b_single_all(m) == want


class InProcessPool:
    """A stand-in for `multiprocessing.Pool` that maps in this process and
    records the number of processes asked for."""

    def __init__(self, processes, sizes=None):
        if sizes is not None:
            sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, items):
        return map(func, items)


@pytest.mark.parametrize("cpus, size", [(64, 4), (3, 3), (None, None)])
def test_pool_never_exceeds_shards_or_cpus(monkeypatch, cpus, size):
    import multiprocessing

    sizes, shards = [], []
    serial = b_single_all(2)
    scan = coefficients._scan_orbits

    def counted(args):
        shards.append(len(args[1]))
        return scan(args)

    monkeypatch.setattr(multiprocessing, "Pool", lambda processes: InProcessPool(processes, sizes))
    monkeypatch.setattr(coefficients.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    monkeypatch.setattr(coefficients, "_scan_orbits", counted)
    # 100000 workers on several CPUs cut the 4 dihedral orbits of K^4
    # into 4 shards; on one CPU they make one shard with one face memo
    assert b_single_all(2, workers=100000) == serial
    assert sizes == ([] if size is None else [size])
    assert shards == ([4] if size is None else [1, 1, 1, 1])


def test_progress_hook_leaves_one_shard_on_one_worker(monkeypatch):
    # reporting progress must not cut the scan into more shards, each
    # with its own face memo
    serial = b_single_all(2)
    shards, seen = [], []
    scan = coefficients._scan_orbits

    def counted(args):
        shards.append(len(args[1]))
        return scan(args)

    monkeypatch.setattr(coefficients, "_scan_orbits", counted)
    monkeypatch.setattr(coefficients, "progress_hook", lambda done, total: seen.append((done, total)))
    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    assert b_single_all(2) == serial
    assert shards == [4]
    assert seen == [(0, 4), (4, 4)]


@pytest.mark.parametrize("workers", [1, 2])
def test_orbit_scan_matches_scan_over_all_seeds(monkeypatch, workers):
    import multiprocessing

    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    for m in (1, 2, 3):
        if m == 3:
            # with 2 workers on 2 CPUs, the 27 orbits of K^6 go in 14
            # shards of up to 2, each with its own face memo; no process
            # is started
            monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
            monkeypatch.setattr(coefficients.os, "cpu_count", lambda: 2)
        totals = dict.fromkeys(compositions_of(m), 0)
        for seed in trivalent_trees(2 * m + 3):
            for comp, v in scan_seed(seed, m).items():
                totals[comp] += v
        assert b_single_all(m, workers=workers) == coefficients._b_from_totals(m, totals)


def test_scaled_cocycle_value_must_be_an_integer(monkeypatch):
    # the window of part 1 that collapses a trivalent face of K^2 to the
    # corolla, scaled by 4 * 5!; a scale missing the factor 5 leaves a
    # remainder at the last level, whose blob has all 5 regions
    face = 1 << 1 * 5 + 2 | 1 << 3 * 5 + 2
    assert coefficients._part_scale(1, 5) // coefficients._cocycle_constant(1) == 120
    assert coefficients._windows(face, 1, 5) == reference_windows(face, 1, 5) == {0: -8}
    scale = coefficients._part_scale
    monkeypatch.setattr(coefficients, "_part_scale", lambda k, leaf_count: scale(k, leaf_count - 1))
    with pytest.raises(ArithmeticError):
        coefficients._windows(face, 1, 5)


def test_refinements_paper_example():
    out = refinements((3, 2, 1, 1, 1), (5, 3))
    assert out == {
        (((3, 2), (1, 1, 1))): 1,
        (((3, 1, 1), (2, 1))): 3,
        (((2, 1, 1, 1), (3,))): 1,
    }


def test_refinements_self_and_empty():
    assert refinements((1, 1), (1, 1)) == {((1,), (1,)): 2}
    assert refinements((2,), (1, 1)) == {}


def test_b_general_diagonal_product_formula():
    assert b_general((1, 1), (1, 1)) == 2 * Fraction(1, 12) ** 2 == Fraction(1, 72)
    assert b_general((2, 2), (2, 2)) == 2 * Fraction(-1, 120) ** 2 == Fraction(1, 7200)
    assert b_general((1, 1, 1), (1, 1, 1)) == 6 * Fraction(1, 12) ** 3 == Fraction(1, 288)
    # paper: a_{2,2}^{2,2} = 120^2/2 = 7200 is the reciprocal diagonal
    assert 1 / b_general((2, 2), (2, 2)) == 7200


def test_b_general_non_refinement_is_zero():
    assert b_general((2,), (1, 1)) == 0


def test_b_matrix_weight_one_and_two():
    b1 = b_matrix(1)
    assert b1.order == ((1,),)
    assert b1.rows == ((Fraction(1, 12),),)
    a1 = a_matrix(1)
    assert a1.rows == ((Fraction(12),),)

    b2 = b_matrix(2)
    assert b2.order == ((2,), (1, 1))
    assert b2.rows == ((Fraction(-1, 120), Fraction(29, 720)),
                       (Fraction(0), Fraction(1, 72)))
    a2 = a_matrix(2)
    assert a2.rows == ((Fraction(-120), Fraction(348)),
                       (Fraction(0), Fraction(72)))


def test_a_times_b_is_identity():
    for n in (1, 2):
        a = a_matrix(n)
        b = b_matrix(n)
        prod = matrix_multiply([list(r) for r in a.rows], [list(r) for r in b.rows])
        size = len(a.order)
        assert prod == [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def test_out_of_range(monkeypatch):
    def no_scan(leaf_count):
        raise AssertionError("scanned K^%d out of range" % (leaf_count - 3))

    monkeypatch.setattr(coefficients, "dihedral_orbits", no_scan)
    with pytest.raises(OutOfComputedRange):
        b_matrix(5)
    with pytest.raises(OutOfComputedRange):
        w_polynomial((5,))
    for n in (-1, 0, 5):
        with pytest.raises(OutOfComputedRange):
            closed_form_checks(n)
    for partition in ((5,), (6,), (3, 2)):
        with pytest.raises(OutOfComputedRange):
            b_single(partition)
    for m in (0, 5, 6):
        with pytest.raises(OutOfComputedRange):
            b_single_all(m)
    assert b_single(()) == 1


def test_w_polynomial_weight_low():
    assert w_polynomial((1,)) == MmmPolynomial({(1,): 12})
    assert w_polynomial((2,)) == MmmPolynomial({(2,): -120})
    assert w_polynomial((1, 1)) == MmmPolynomial({(1, 1): 72, (2,): 348})
    assert w_polynomial((1, 0)) == MmmPolynomial({(1, 0): -24, (1,): -36})
    assert w_polynomial((0,)) == MmmPolynomial({(0,): -2})
    assert w_polynomial((0, 0)) == MmmPolynomial({(0, 0): 2, (0,): 1})


def test_sign_of_diagonal_alternates():
    for n in range(1, 7):
        a = closed_form_a_diagonal(n)
        assert (a > 0) == (n % 2 == 1)
        assert a == 1 / closed_form_b_diagonal(n)


def test_polynomial_rendering():
    p = MmmPolynomial({(2, 1): -1440, (3,): -13680})
    assert p.render() == "-1440*k2*k1 - 13680*k3"
    q = MmmPolynomial({(1, 1): 72, (2,): 348})
    assert q.render() == "72*k1^2 + 348*k2"
    assert MmmPolynomial({}).render() == "0"
    assert monomial_text((1, 1, 0)) == "k1^2*k0"
    assert format_rational(Fraction(29, 720)) == "29/720"
    assert format_rational(Fraction(-120)) == "-120"


def test_polynomial_json():
    q = MmmPolynomial({(1, 1): 72, (2,): 348})
    assert q.to_json() == {"1,1": "72", "2": "348"}


def test_polynomial_arithmetic():
    k1 = MmmPolynomial.monomial((1,))
    k2 = MmmPolynomial.monomial((2,))
    assert (k1 * k1).terms == {(1, 1): 1}
    assert (k1 * k2).terms == {(2, 1): 1}
    assert (k1 + k1.scale(-1)).terms == {}
    assert MmmPolynomial.constant(3) * k1 == k1.scale(3)


def test_compositions():
    assert set(compositions_of(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_closed_form_checks_weight_two():
    results = closed_form_checks(2)
    assert results
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)


def test_closed_form_check_names_are_distinct():
    # one row per partition: every one- and two-part partition of weight
    # <= n once, zero parts included, and (1,1,1) from weight 3
    for n in (1, 2, 3, 4):
        names = [r.name for r in closed_form_checks(n)]
        named = [tuple(int(p) for p in re.match(r"W\[([\d,]*)\]\* = ", name)[1].split(","))
                 for name in names]
        expected = {(w,) for w in range(n + 1)}
        expected |= {(w - j, j) for w in range(n + 1) for j in range(w // 2 + 1)}
        if n >= 3:
            expected.add((1, 1, 1))
        assert len(set(names)) == len(names)
        assert len(named) == len(set(named)) and set(named) == expected


# The special closed forms that `first_two_terms` replaced, kept as
# references for it: Witten's W[k]*, W[n,1]*, W[k,0]* and the two-part
# formula conjectured by Arbarello and Cornalba.

def _witten_polynomial(k):
    return MmmPolynomial.monomial((k,), closed_form_a_diagonal(k))


def _w_n1_formula(n):
    kn1 = MmmPolynomial.monomial((n, 1)) if n >= 1 else MmmPolynomial.monomial((1, 0))
    knp1 = MmmPolynomial.monomial((n + 1,))
    out = (kn1 - knp1).scale(3 * (-2) ** (n + 3) * double_factorial(2 * n + 1)) \
        - knp1.scale((-2) ** (n + 2) * double_factorial(2 * n + 5))
    if n == 1:
        out = out.scale(Fraction(1, 2))
    return out


def _w_k0_formula(k):
    main = MmmPolynomial.monomial((k, 0), (-2) ** (k + 2) * double_factorial(2 * k + 1)) \
        - MmmPolynomial.monomial((k,), (2 * k + 1) * (-2) ** (k + 1) * double_factorial(2 * k + 1))
    if k == 0:
        main = main.scale(Fraction(1, 2))
    return main


def _conjecture_formula(n, k):
    an = closed_form_a_diagonal(n)
    ak = closed_form_a_diagonal(k)
    ank1 = closed_form_a_diagonal(n + k + 1)
    out = (MmmPolynomial.monomial((n, k)) - MmmPolynomial.monomial((n + k,))).scale(an * ak) \
        + MmmPolynomial.monomial((n + k,), Fraction(ank1, 2))
    if n == k:
        out = out.scale(Fraction(1, 2))
    return out


def test_conjecture_formula_weight_four_values():
    assert _conjecture_formula(2, 2) == MmmPolynomial({(2, 2): 7200, (4,): 159120})
    assert _conjecture_formula(3, 1) == MmmPolynomial({(3, 1): 20160, (4,): 312480})
    assert first_two_terms((2, 2)) == _conjecture_formula(2, 2)
    assert first_two_terms((3, 1)) == _conjecture_formula(3, 1)


def test_first_two_terms_matches_the_special_closed_forms_to_weight_12():
    for k in range(1, 13):
        assert first_two_terms((k,)) == _witten_polynomial(k)
    for n in range(0, 12):
        assert first_two_terms((n, 1)) == _w_n1_formula(n)
    for k in range(0, 13):
        assert first_two_terms((k, 0)) == _w_k0_formula(k)
    for n in range(1, 12):
        for k in range(1, min(n, 12 - n) + 1):
            assert first_two_terms((n, k)) == _conjecture_formula(n, k)


def _named_monomials(lam):
    """k_lam and every k_mu made by merging two of its parts."""
    out = {lam}
    for i, j in combinations(range(len(lam)), 2):
        rest = [p for l, p in enumerate(lam) if l not in (i, j)]
        out.add(tuple(sorted(rest + [lam[i] + lam[j]], reverse=True)))
    return out


def test_first_two_terms_agree_with_w_polynomial_up_to_max_weight():
    """Every coefficient the rule names, on every partition of weight <=
    MAX_WEIGHT with 0, 1 or 2 zero parts, against the chain scan; with
    one or two parts the rule is the whole polynomial."""
    count = 0
    for w in range(MAX_WEIGHT + 1):
        for positive in partitions_of(w):
            for zeros in (0, 1, 2):
                lam = positive + (0,) * zeros
                got, rule = w_polynomial(lam), first_two_terms(lam)
                for key in _named_monomials(lam):
                    assert got.terms.get(key, 0) == rule.terms.get(key, 0), (lam, key)
                assert set(rule.terms) <= _named_monomials(lam)
                if len(lam) <= 2:
                    assert got == rule, lam
                count += 1
    assert count == 36


def test_order_independence_of_compositions():
    # the chain-scan value depends only on the multiset of parts
    for m in (2, 3):
        values = b_single_all(m)
        for comp, v in values.items():
            assert v == values[normalize_partition(comp)]


def test_weight_three_matrix_is_triangular_and_inverts():
    b3 = b_matrix(3)
    assert b3.order == ((3,), (2, 1), (1, 1, 1))
    for i in range(3):
        for j in range(3):
            if j < i:
                assert b3.rows[i][j] == 0
            if i == j:
                assert b3.rows[i][j] != 0
    a3 = a_matrix(3)
    prod = matrix_multiply([list(r) for r in a3.rows], [list(r) for r in b3.rows])
    assert prod == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    # the (1,1,1) column of A_3 is the degree-three table row
    col = a3.order.index((1, 1, 1))
    assert [a3.rows[i][col] for i in range(3)] == [20736, 4176, 288]
