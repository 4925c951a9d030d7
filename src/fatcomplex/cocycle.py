"""The cyclic-set sign sum and its cocycles on chains of vertex corners.

The basic datum is a chain of cyclically ordered finite sets
C_0 -> C_1 -> ... -> C_2k joined by cyclic-order-preserving
monomorphisms.  The unadjusted cocycle sums the cyclic sign of all
tuples (a_0, ..., a_2k) with a_i drawn from C_i minus C_{i-1} and
divides by (-2)^k (2k-1)!! |C_0| ... |C_2k|; the adjusted cocycle
divides by a further -2.  Evaluated with multiplicity valence-2 at
every vertex of the first graph of a simplex, the adjusted cocycle
computes the combinatorial representative of the degree-2k adjusted
tautological class.
"""

from fractions import Fraction
from itertools import product

from fatcomplex import ribbon
from fatcomplex.coefficients import double_factorial
from fatcomplex.ribbon import GraphError, sort_sign
from fatcomplex.trees import regions_touching


class RepeatedElement(GraphError):
    pass


class EvenLength(GraphError):
    pass


class LengthMismatch(GraphError):
    pass


def cyclic_sign(elements, ambient):
    """Sign of the permutation sorting `elements` into the ambient
    cyclic order, read from any starting point.

    The tuple must have odd length so that the choice of starting point
    does not matter (rotating an odd tuple is even).
    """
    elements = tuple(elements)
    if len(elements) % 2 == 0:
        raise EvenLength("cyclic sign needs an odd tuple")
    if len(set(elements)) != len(elements):
        raise RepeatedElement("cyclic sign needs distinct elements")
    pos = {x: i for i, x in enumerate(ambient)}
    try:
        ranks = [pos[x] for x in elements]
    except KeyError as exc:
        raise GraphError("element %r not in ambient cyclic set" % (exc.args[0],))
    return sort_sign(ranks)


class CyclicSetChain:
    """A chain of cyclic sets embedded in a common ambient cyclic set.

    `ambient` is the cyclic order of the last set; `images` are the
    images of C_0 ... C_2k inside it, as frozensets.
    """

    __slots__ = ("ambient", "images")

    def __init__(self, ambient, images):
        self.ambient = tuple(ambient)
        self.images = [frozenset(s) for s in images]
        universe = set(self.ambient)
        prev = None
        for s in self.images:
            if not s <= universe:
                raise GraphError("chain set not inside the ambient cyclic set")
            if prev is not None and not prev <= s:
                raise GraphError("chain maps must be monomorphisms")
            prev = s
        if self.images and self.images[-1] != universe:
            raise GraphError("last chain set must fill the ambient cyclic set")

    def sizes(self):
        return [len(s) for s in self.images]

    def __len__(self):
        return len(self.images)


def _sign_sum(chain):
    levels = [sorted(chain.images[0])]
    for prev, cur in zip(chain.images, chain.images[1:]):
        levels.append(sorted(cur - prev))
    total = 0
    for tup in product(*levels):
        total += cyclic_sign(tup, chain.ambient)
    return total


def cz(k, chain):
    """The unadjusted cyclic-set cocycle on a 2k-simplex of cyclic sets."""
    if len(chain) != 2 * k + 1:
        raise LengthMismatch("need a chain of 2k+1 cyclic sets")
    sizes = chain.sizes()
    if any(b - a == 0 for a, b in zip(sizes, sizes[1:])):
        return Fraction(0)
    denom = Fraction((-2) ** k * double_factorial(2 * k - 1))
    for s in sizes:
        denom *= s
    return Fraction(_sign_sum(chain)) / denom


def adjusted_cz(k, chain):
    """The cocycle divided by -2, the normalization evaluated on graphs."""
    return cz(k, chain) / (-2)


# ---------------------------------------------------------------------------
# evaluation on simplices of ribbon graphs and on tree chains
# ---------------------------------------------------------------------------

def c_fat(k, simplex):
    """Adjusted cocycle of a 2k-simplex (top, steps): sum over the
    vertices of the top graph, weighted by valence-2."""
    top, steps = simplex
    if len(steps) != 2 * k:
        raise LengthMismatch("need a simplex of 2k steps")
    total = Fraction(0)
    for cycle in top.vertices:
        mu = len(cycle) - 2
        chain = CyclicSetChain(*ribbon.corner_chain(top, steps, cycle))
        total += mu * adjusted_cz(k, chain)
    return total


def region_chain(chain, start, stop, vertex_cycle):
    """Region-model cyclic set chain for a tree chain window.

    `chain` is a TreeChain; the tracked vertex is the image, from step
    `start` on, of the vertex of chain.trees[start] with the given
    cycle.  C_i is the set of regions touching the image vertex of
    chain.trees[start + i]; the ambient cyclic set is the last of them.
    """
    images = []
    current = set(vertex_cycle)
    for t in chain.trees[start:stop + 1]:
        vertex = next(c for c in t.vertices if current & set(c))
        images.append(frozenset(regions_touching(t, vertex)))
        current = set(vertex)
    # regions are numbered in circle order, so the sorted last set keeps it
    return CyclicSetChain(sorted(images[-1]), images)


def c_fat_tree_window(k, chain, start):
    """Adjusted cocycle on the window [start, start+2k] of a tree chain,
    summed over the vertices of the window's first tree with
    multiplicity valence-2."""
    stop = start + 2 * k
    if stop > len(chain.edges):
        raise LengthMismatch("window exceeds the chain")
    first = chain.trees[start]
    total = Fraction(0)
    for cycle in first.vertices:
        mu = len(cycle) - 2
        total += mu * adjusted_cz(k, region_chain(chain, start, stop, cycle))
    return total


def cup_product(parts, chain):
    """Product of adjusted cocycles on consecutive windows of a tree
    chain, one factor of degree 2*part per part, in the given order."""
    if 2 * sum(parts) != len(chain.edges):
        raise LengthMismatch("parts must tile the chain")
    total = Fraction(1)
    at = 0
    for p in parts:
        total *= c_fat_tree_window(p, chain, at)
        if total == 0:
            return Fraction(0)
        at += 2 * p
    return total


def cup_product_graph(parts, simplex):
    """Front/back-face cup product on a simplex (top, steps): each face
    starts at the graph that the steps before it collapse the top to."""
    top, steps = simplex
    if 2 * sum(parts) != len(steps):
        raise LengthMismatch("parts must tile the simplex")
    total = Fraction(1)
    at = 0
    for p in parts:
        face = steps[at:at + 2 * p]
        total *= c_fat(p, (top, face))
        if total == 0:
            return Fraction(0)
        for step in face:
            for edge in step:
                top = ribbon.collapse_edge(ribbon.OrientedRibbonGraph(top), edge).graph
        at += 2 * p
    return total
