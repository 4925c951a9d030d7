"""The check registry: the verification suites behind `fatcomplex verify`
and the acceptance suite.

Each suite takes its inputs as keyword arguments, from `corpus` (a
`graph_complex.ClassCorpus`), `n`, `seed` and `workers`, ignores
the ones it does not use, and returns rows (suite, name, passed).  A
check that covers no instance emits no row, so every row reports a check
that could fail, and `verify` exits 1 on any failed row.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

from fatcomplex import ainfinity, coefficients, graph_complex, trees


def check_orientation(**_):
    """`trees.region_sign`, the rule the chain scan uses, against the
    collapse bookkeeping `trees.chain_sign`: with v0 the big vertex on the
    seeds with one, picked by the region-mask sizes of their vertices,
    and with v0 the child of e_1 on the maximal chains of K^2 and K^4."""
    rows = []
    for valence in (5, 7, 9):
        L = valence + 2
        seeds = []
        for face in trees.face_sets(valence - 1, valence - 3):
            codes, _, masks, _ = trees.face_layout(face, L)
            if sorted(mask.bit_count() for mask in masks) == [3, 3, valence]:
                v0 = next(v for v, mask in enumerate(masks) if mask.bit_count() > 3)
                seeds.append((face, codes, v0, trees.tree_from_face(face, L)))
        ok = bool(seeds) and all(
            trees.region_sign(face, order, v0, L) == trees.chain_sign(tree, order)
            for face, codes, v0, tree in seeds for order in permutations(codes))
        rows.append(("orientation", "region sign rule, big vertex valence %d" % valence, ok))
    for n in (2, 4):
        ok = True
        # every order of a face's bits is a chain of the list
        signs = dict(trees.maximal_chains(n))
        for (face, order), sign in signs.items():
            # the child of edge i is vertex i + 1
            v0 = trees.face_layout(face, n + 3)[0].index(order[0]) + 1
            if trees.region_sign(face, order, v0, n + 3) != sign:
                ok = False
            for i in range(n - 1):
                swapped = order[:i] + (order[i + 1], order[i]) + order[i + 2:]
                if signs[face, swapped] != -sign:
                    ok = False
        rows.append(("orientation",
                     "chain signs on K^%d: region rule and antisymmetry" % n, ok))
    return rows


def check_complex(corpus, **_):
    graphs = corpus.graphs()
    rows = []
    classes = [g.literal() for g in graphs if g.codimension >= 2]
    if classes:
        corpus.columns(classes)  # the columns at the bound in one batch
        ok = not any(corpus.boundary(corpus.boundary({key: 1})) for key in classes)
        rows.append(("complex", "d.d = 0 on %d classes within %d half-edges"
                     % (len(classes), corpus.max_half_edges), ok))
    for n in (1, 2, 3):
        lhs, rhs = trees.dual_cell_boundary_check(n)
        rows.append(("complex", "dual cell boundary identity on K^%d" % n, lhs == rhs))
    bases = [g for g in graphs if 1 <= g.codimension <= 4]
    if bases:
        ok = all(fc.ranks() == fc.expected_ranks() and fc.homology_is_trivial()
                 for fc in map(graph_complex.forest_complex, bases))
        rows.append(("complex", "forest complex ranks/acyclicity on %d bases"
                     % len(bases), ok))
    ok = all(len(trees.enumerate_trivalent_trees(leaves))
             == math.comb(2 * (leaves - 2), leaves - 2) // (leaves - 1)
             for leaves in range(3, 10))
    rows.append(("complex", "Catalan counts for trivalent trees up to 9 leaves", ok))
    return rows


def check_cocycle(corpus, **_):
    rows = []
    for lam in ((), (1,), (2,), (1, 1)):
        report = graph_complex.check_pattern_cocycle(lam, corpus)
        if report:
            name = "W[%s]* kills boundaries (%d classes, <= %d half-edges)" % (
                ",".join(str(p) for p in lam), len(report), corpus.max_half_edges)
            rows.append(("cocycle", name, all(v == 0 for _, v in report)))
    return rows


def check_ainf(corpus, seed, **_):
    """Z_x for three random x, one value per even arity of the algebra,
    which goes up to the half-edge bound + 2.  The three share the
    corpus's boundary columns."""
    rng = random.Random(seed)
    bound = corpus.max_half_edges
    xs = [[Fraction(rng.randint(1, 9), rng.randint(1, 9))
           for _ in range(bound // 2 + 1)] for _ in range(3)]
    reports = ainfinity.check_partition_cocycle(
        [ainfinity.one_dimensional_algebra(x, bound + 2) for x in xs], corpus)
    rows = []
    for trial, (x, report) in enumerate(zip(xs, reports), 1):
        if report:
            rows.append(("ainf", "Z_x cocycle, random x #%d (%d classes)"
                         % (trial, len(report)), all(v == 0 for _, v in report)))
        expansion = ainfinity.zx_expansion_check(x, corpus)
        if expansion:
            rows.append(("ainf", "Z_x expansion identity, random x #%d" % trial,
                         all(lhs == rhs for _, lhs, rhs in expansion)))
    return rows


def check_closedform(n, workers, **_):
    return [("closedform", r.name, r.passed)
            for r in coefficients.closed_form_checks(n, workers=workers)]


SUITES = {
    "orientation": check_orientation,
    "complex": check_complex,
    "cocycle": check_cocycle,
    "ainf": check_ainf,
    "closedform": check_closedform,
}


def run(names, **inputs):
    """The rows of the named suites in order.  The weight is checked
    before any suite spends time.  The graph-complex suites share one
    `ClassCorpus` within `max_half_edges`, built once for the run."""
    if "closedform" in names:
        coefficients.check_weight(inputs["n"])
    if any(name in names for name in ("complex", "cocycle", "ainf")):
        inputs["corpus"] = graph_complex.ClassCorpus(inputs["max_half_edges"])
    return [row for name in names for row in SUITES[name](**inputs)]
