"""The three benchmark workloads: fixed sequences of calls into the public
functions of `fatcomplex`, each followed by checks of the exact outputs.

A workload has `setup(seed, tracer, checks)`, which builds its inputs
from the seed alone, and `run(inputs, tracer, checks)`.  Every call into
a layer of the library goes through `call`, which records a span named
`<module>.<function>` when tracing is on.  The sizes are constructor
arguments so that the tests can run a small copy of each workload.
"""

import math
import random
from fractions import Fraction

from fatcomplex import ainfinity, coefficients, graph_complex, ribbon, trees
from fatcomplex.ribbon import OrientedRibbonGraph


class Checks:
    """Counts checks attempted and failed; a check that raises has failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def value(self, name, compute, ok):
        """Run `compute()` and pass when `ok(result)` holds.

        Returns the result, or None when `compute` raised.
        """
        self.attempted += 1
        try:
            result = compute()
        except Exception as exc:
            self.failures.append("%s: raised %r" % (name, exc))
            return None
        try:
            good = ok(result)
        except Exception as exc:
            self.failures.append("%s: check raised %r" % (name, exc))
            return result
        if not good:
            self.failures.append(name)
        return result

    def expect(self, name, compute, expected):
        return self.value(name, compute, lambda got: got == expected)

    def agree(self, name, compute, compute_expected):
        """Pass when `compute()` equals `compute_expected()`, both computed
        inside the check.  Returns the pair, or None when either raised."""
        return self.value(name, lambda: (compute(), compute_expected()),
                          lambda pair: pair[0] == pair[1])


def call(tracer, name, fn, *args):
    with tracer.span(name):
        return fn(*args)


def shape(g):
    """(code, automorphism count) of a ribbon graph, from the benchmark's
    own traversal code.  The code orders a population of classes
    independently of the library's key format, so that a seed picks the
    same classes on every version of the library."""
    sigma = {}
    for cycle in g.vertices:
        for i, h in enumerate(cycle):
            sigma[h] = cycle[(i + 1) % len(cycle)]
    best, ties = None, 0
    for root in g.half_edges:
        label = {root: 0}
        order = [root]
        for h in order:
            for nxt in (sigma[h], g.pairing[h]):
                if nxt not in label:
                    label[nxt] = len(label)
                    order.append(nxt)
        code = tuple((label[sigma[h]], label[g.pairing[h]]) for h in order)
        if best is None or code < best:
            best, ties = code, 1
        elif code == best:
            ties += 1
    return best, ties


def valences(g):
    return tuple(sorted((len(c) for c in g.vertices), reverse=True))


def cost_class(g, shapes):
    """Classes of one codimension, valence list and symmetry cost alike."""
    return g.codimension, valences(g), shapes[g][1] > 1


def enumerate_corpus(max_half_edges, expected, tracer, checks):
    """enumerate_graphs, checked against the expected class count, in the
    order of `shape`; returns (corpus, shapes), or (None, None) when
    enumeration raised."""
    corpus = checks.value(
        "enumerate_graphs(%d) class count" % max_half_edges,
        lambda: call(tracer, "graph_complex.enumerate_graphs",
                     graph_complex.enumerate_graphs, max_half_edges),
        lambda found: len(found) == expected)
    if corpus is None:
        return None, None
    tracer.count("graph_complex.enumerate_graphs.classes", len(corpus))
    shapes = {g: shape(g) for g in corpus}
    return sorted(corpus, key=shapes.get), shapes


def boundary(g, tracer, checks):
    """d_integral of <g>, checked for its grading; None when it raised."""
    chain = checks.value("d_integral on %r" % (g.literal(),),
                         lambda: call(tracer, "graph_complex.d_integral",
                                      graph_complex.d_integral, OrientedRibbonGraph(g, 1)),
                         lambda c: c.grading == g.codimension - 1)
    if chain is not None:
        tracer.count("graph_complex.d_integral.terms", len(chain.terms))
    return chain


def stratified_sample(rng, population, fraction, stratum):
    """A proportional stratified sample, drawn uniformly inside each
    stratum: max(1, round(fraction * size)) members per stratum.

    Strata group classes of similar cost, so every seed draws about the
    same amount of work; `population` must already be in a
    seed-independent order.
    """
    groups = {}
    for item in population:
        groups.setdefault(stratum(item), []).append(item)
    out = []
    for key in sorted(groups):
        members = groups[key]
        out.extend(rng.sample(members, max(1, round(fraction * len(members)))))
    return out


# ---------------------------------------------------------------------------
# scan: the work of `fatcomplex coeff --n 3`
# ---------------------------------------------------------------------------

# frozen from a complete run at the commit that added the benchmark
B_SINGLE = {
    1: {(1,): "1/12"},
    2: {(1, 1): "29/720", (2,): "-1/120"},
    3: {(1, 1, 1): "263/6720", (1, 2): "-19/3360", (2, 1): "-19/3360",
        (3,): "1/1680"},
}
A_MATRIX = {
    1: [["12"]],
    2: [["-120", "348"], ["0", "72"]],
    3: [["1680", "-13680", "20736"], ["0", "-1440", "4176"], ["0", "0", "288"]],
}
W_POLYNOMIAL = {
    (1,): {"1": "12"},
    (2,): {"2": "-120"},
    (1, 1): {"1,1": "72", "2": "348"},
    (3,): {"3": "1680"},
    (2, 1): {"2,1": "-1440", "3": "-13680"},
    (1, 1, 1): {"1,1,1": "288", "2,1": "4176", "3": "20736"},
}
# compares the closed-form diagonal with itself, so it cannot fail
SELF_COMPARISON = "(closed-form diagonal)"


class Scan:
    """b_single_all over K^2 .. K^{2w}, A_w, every W polynomial of weight
    <= w and the closed-form identities.  Nothing in it is random."""

    name = "scan"

    def __init__(self, weight=3):
        self.weight = weight
        self.expected_b = {m: {comp: Fraction(v) for comp, v in B_SINGLE[m].items()}
                           for m in range(1, weight + 1)}
        self.expected_a = A_MATRIX[weight]
        self.expected_w = {p: v for p, v in W_POLYNOMIAL.items() if sum(p) <= weight}

    def setup(self, seed, tracer, checks):
        return None

    def run(self, inputs, tracer, checks):
        for m in range(1, self.weight + 1):
            self._scan(m, tracer, checks)
        checks.expect("a_matrix(%d)" % self.weight,
                      lambda: call(tracer, "coefficients.a_matrix",
                                   coefficients.a_matrix, self.weight).to_json(),
                      self.expected_a)
        for mu, want in self.expected_w.items():
            checks.expect("w_polynomial%r" % (mu,),
                          lambda: call(tracer, "coefficients.w_polynomial",
                                       coefficients.w_polynomial, mu).to_json(),
                          want)
        rows = checks.value("closed_form_checks(%d)" % self.weight,
                            lambda: call(tracer, "coefficients.closed_form_checks",
                                         coefficients.closed_form_checks, self.weight),
                            bool)
        for row in rows or ():
            if SELF_COMPARISON not in row.name:
                checks.expect(row.name, lambda: row.passed, True)

    def _scan(self, m, tracer, checks):
        leaves = 2 * m + 3
        seeds = checks.value(
            "Catalan count of trees with %d leaves" % leaves,
            lambda: call(tracer, "trees.enumerate_trivalent_trees",
                         trees.enumerate_trivalent_trees, leaves),
            lambda t: len(t) == math.comb(2 * leaves - 4, leaves - 2) // (leaves - 1))
        if seeds is not None:
            tracer.count("coefficients.b_single_all.K%d.chains" % (2 * m),
                         len(seeds) * math.factorial(2 * m))
        b = checks.expect("b_single_all(%d)" % m,
                          lambda: call(tracer, "coefficients.b_single_all.K%d" % (2 * m),
                                       coefficients.b_single_all, m),
                          self.expected_b[m])
        if b is None:
            return
        # independent closed forms: the diagonal, and (n, 1) for n = m - 1
        checks.agree("b(%d) = closed-form diagonal" % m,
                     lambda: b[(m,)], lambda: coefficients.closed_form_b_diagonal(m))
        if m >= 2:
            n = m - 1
            checks.agree("b(%d,1) = closed form" % n, lambda: b[(n, 1)],
                         lambda: (Fraction(2 * n + 5, 12) - Fraction(1, 2 * (2 * n + 3)))
                         / coefficients.closed_form_a_diagonal(n))


# ---------------------------------------------------------------------------
# complex: the graph-complex suite
# ---------------------------------------------------------------------------

# classes with at most this many half-edges, and the number of classes of
# codimension 2|lam|+1 that verify_cocycle reports for each lam
CLASS_COUNTS = {8: 42, 10: 276}
COCYCLE_SIZES = {
    8: {(): 1, (1,): 2, (2,): 17, (1, 1): 17},
    10: {(): 16, (1,): 2, (2,): 17, (1, 1): 17},
}
PATTERNS = ((), (1,), (2,), (1, 1))
RELABELLINGS = 3
# shares of the d.d and forest-complex populations sampled: d.d on all 256
# classes of codimension >= 2 takes about 35 s, the forest complexes over
# all 150 bases about 100 s
DD_FRACTION = 0.15
FOREST_FRACTION = 1 / 15


class Complex:
    """Enumeration, canonical-form invariance, d.d = 0, the pattern
    cocycles and the forest complexes over a bounded corpus."""

    name = "complex"

    def __init__(self, max_half_edges=10):
        self.max_half_edges = max_half_edges
        self.expected_classes = CLASS_COUNTS[max_half_edges]
        self.expected_cocycle_sizes = COCYCLE_SIZES[max_half_edges]

    def setup(self, seed, tracer, checks):
        return random.Random(seed)

    def run(self, rng, tracer, checks):
        corpus, shapes = enumerate_corpus(self.max_half_edges, self.expected_classes,
                                          tracer, checks)
        if corpus is None:
            return
        self._canonical_forms(rng, corpus, tracer, checks)
        dd = stratified_sample(rng, [g for g in corpus if g.codimension >= 2],
                               DD_FRACTION, lambda g: cost_class(g, shapes))
        self._d_squared(dd, tracer, checks)
        for lam in PATTERNS:
            self._cocycle(lam, tracer, checks)
        bases = stratified_sample(rng, [g for g in corpus if 1 <= g.codimension <= 4],
                                  FOREST_FRACTION, lambda g: cost_class(g, shapes))
        for base in bases:
            self._forest(base, tracer, checks)

    def _canonical_forms(self, rng, corpus, tracer, checks):
        """canonical_form is idempotent on each representative and
        invariant under seeded random relabellings of it."""
        for g in corpus:
            key = checks.expect("canonical_form fixes %r" % (g.literal(),),
                                lambda: call(tracer, "ribbon.canonical_form",
                                             ribbon.canonical_form, g)[0],
                                g.literal())
            labels = list(g.half_edges)
            for _ in range(RELABELLINGS):
                image = rng.sample(range(100, 100 + 3 * len(labels)), len(labels))
                checks.expect("canonical_form invariant on %r" % (g.literal(),),
                              lambda: call(tracer, "ribbon.canonical_form",
                                           ribbon.canonical_form,
                                           g.relabel(dict(zip(labels, image))))[0],
                              key)

    def _d_squared(self, sample, tracer, checks):
        fed = 0
        distinct = set()
        for g in sample:
            chain = boundary(g, tracer, checks)
            if chain is None:
                continue
            fed += len(chain.terms)
            distinct.update(chain.terms)
            checks.value("d.d = 0 on %r" % (g.literal(),),
                         lambda: call(tracer, "graph_complex.d_chain",
                                      graph_complex.d_chain, chain),
                         lambda c: c.is_zero())
        tracer.count("graph_complex.d_chain.fed", fed)
        tracer.count("graph_complex.d_chain.distinct", len(distinct))

    def _cocycle(self, lam, tracer, checks):
        want = self.expected_cocycle_sizes[lam]
        checks.value("W%r is a cocycle on %d classes" % (lam, want),
                     lambda: call(tracer, "graph_complex.verify_cocycle",
                                  graph_complex.verify_cocycle, lam, self.max_half_edges),
                     lambda report: len(report) == want
                     and all(v == 0 for _, v in report))

    def _forest(self, base, tracer, checks):
        where = repr(base.literal())
        fc = checks.value("forest_complex over %s" % where,
                          lambda: call(tracer, "graph_complex.forest_complex",
                                       graph_complex.forest_complex, base),
                          lambda fc: fc.base is base)
        if fc is None:
            return
        ranks = checks.agree("forest ranks over %s" % where, fc.ranks,
                             lambda: call(tracer, "graph_complex.ForestComplex.expected_ranks",
                                          fc.expected_ranks))
        if ranks is not None:
            tracer.count("graph_complex.forest_complex.generators", sum(ranks[0]))
        checks.expect("forest d.d = 0 over %s" % where,
                      lambda: call(tracer, "graph_complex.ForestComplex.d_squared_is_zero",
                                   fc.d_squared_is_zero),
                      True)
        checks.expect("forest homology trivial over %s" % where,
                      lambda: call(tracer, "graph_complex.ForestComplex.homology_is_trivial",
                                   fc.homology_is_trivial),
                      True)


# ---------------------------------------------------------------------------
# statesum: partition functions of a dense rank-2 algebra
# ---------------------------------------------------------------------------

MAX_ARITY = 8


def random_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


class StateSum:
    """Z_B on every class with `half_edges` half-edges, where B is the direct
    sum of the rank-one algebras of seeded x and y in a seeded dense basis,
    so that Z_B = Z_x + Z_y; and Z_B on the boundary of one class of each
    cost stratum.

    The seed picks the algebra, which changes every state sum.  It does
    not pick the boundary classes: boundaries of classes of one stratum
    differ in work by up to a factor of two, which would make the run
    time depend on the seed.
    """

    name = "statesum"

    def __init__(self, half_edges=10):
        self.half_edges = half_edges
        self.expected_classes = CLASS_COUNTS[half_edges]

    def setup(self, seed, tracer, checks):
        rng = random.Random(seed)
        count = MAX_ARITY // 2
        x = [random_rational(rng) for _ in range(count)]
        y = [random_rational(rng) for _ in range(count)]
        while True:
            basis = [[random_rational(rng) for _ in range(2)] for _ in range(2)]
            if basis[0][0] * basis[1][1] != basis[0][1] * basis[1][0]:
                break
        products = {k: {(0,) * k: {0: x[k // 2 - 1]}, (1,) * k: {1: y[k // 2 - 1]}}
                    for k in range(2, MAX_ARITY + 1, 2)}
        algebra = checks.value(
            "change of basis of the direct sum",
            lambda: call(tracer, "ainfinity.change_basis",
                         ainfinity.AInfinityAlgebra([0, 0], [[1, 0], [0, 1]],
                                                    products).change_basis,
                         basis),
            lambda b: b.rank == 2)
        if algebra is None:
            return {"algebra": None}
        checks.expect("A-infinity relations up to arity %d" % MAX_ARITY,
                      lambda: call(tracer, "ainfinity.verify_ainfinity",
                                   ainfinity.verify_ainfinity, algebra, MAX_ARITY),
                      [])
        checks.expect("cyclic symmetry",
                      lambda: call(tracer, "ainfinity.cyclicity_failures",
                                   algebra.cyclicity_failures),
                      [])
        checks.expect("contraction identity",
                      lambda: call(tracer, "ainfinity.contraction_identity_holds",
                                   ainfinity.contraction_identity_holds, algebra),
                      True)
        return {"algebra": algebra, "x": x, "y": y}

    def run(self, inputs, tracer, checks):
        if inputs["algebra"] is None:
            return
        algebra, x, y = inputs["algebra"], inputs["x"], inputs["y"]
        corpus, shapes = enumerate_corpus(self.half_edges, self.expected_classes,
                                          tracer, checks)
        if corpus is None:
            return
        graphs = [g for g in corpus if len(g.half_edges) == self.half_edges]
        states = 0
        for g in graphs:
            checks.value("Z_B = Z_x + Z_y on %r" % (g.literal(),),
                         lambda: self._both_sides(algebra, x, y, g, tracer),
                         lambda sides: sides[0] == sides[1])
            states += algebra.rank ** len(g.half_edges)
        tracer.count("ainfinity.partition_function.states", states)
        # per stratum, the first class in shape order with a nonzero boundary
        done = set()
        for g in graphs:
            stratum = cost_class(g, shapes)
            if g.codimension < 1 or stratum in done:
                continue
            chain = boundary(g, tracer, checks)
            if chain is None or chain.is_zero():
                continue
            done.add(stratum)
            checks.expect("Z_B kills the boundary of %r" % (g.literal(),),
                          lambda: call(tracer, "ainfinity.partition_function_chain",
                                       ainfinity.partition_function_chain, algebra, chain),
                          0)

    @staticmethod
    def _both_sides(algebra, x, y, g, tracer):
        """(Z_B, Z_x + Z_y) on <g>."""
        og = OrientedRibbonGraph(g, 1)
        return (call(tracer, "ainfinity.partition_function",
                     ainfinity.partition_function, algebra, og),
                ainfinity.z_x(x, og) + ainfinity.z_x(y, og))


WORKLOADS = {w.name: w for w in (Scan, Complex, StateSum)}
