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
from fatcomplex.ribbon import GraphError, word_parity
from fatcomplex.trees import region_touch_sets


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
    return word_parity(ranks, sorted(ranks))


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
# evaluation on simplices (top, steps) of ribbon graphs and planar trees
# ---------------------------------------------------------------------------

def c_fat(k, simplex):
    """Adjusted cocycle of a 2k-simplex (top, steps), the cup product of
    one part: sum over the vertices of the top graph or tree, weighted by
    valence-2, of the cocycle on their corner chains."""
    return cup_product((k,), simplex)


def cup_product(parts, simplex):
    """Front/back-face cup product on a simplex (top, steps), one
    adjusted cocycle of degree 2*part per part, in the given order.
    Each face starts at the object the steps before it collapse the top
    to, of which only the vertex cycles and pairing are read."""
    top, steps = simplex
    if 2 * sum(parts) != len(steps):
        raise LengthMismatch("parts must tile the simplex")
    cycles, pairing = top.vertices, top.pairing
    total = Fraction(1)
    for p in parts:
        face, steps = steps[:2 * p], steps[2 * p:]
        total *= sum((len(c) - 2) * adjusted_cz(p, CyclicSetChain(
            *ribbon.corner_chain(cycles, pairing, face, c))) for c in cycles)
        if total == 0:
            return total
        cycles, pairing, _ = ribbon.collapse_steps(cycles, pairing, face)
    return total


def region_chain(top, steps, cycle):
    """Region-model cyclic set chain of a vertex along a tree simplex
    (top, steps): C_i is the set of regions touching the image of the
    vertex after step i; the ambient cyclic set is the last of them.

    The corner after a half-edge closes off the same branch in every tree
    of the chain, so the regions touching each vertex are read once from
    the top tree, and an image vertex touches the union of the regions of
    the top vertices merged into it (the mask model of the `K^{2m}` scan)."""
    regions = list(region_touch_sets(top).values())
    index = {h: i for i, c in enumerate(top.vertices) for h in c}
    rep = list(range(len(regions)))
    vertex = index[cycle[0]]
    images = [frozenset(regions[vertex])]
    for step in steps:
        for a, b in step:
            ra, rb = rep[index[a]], rep[index[b]]
            regions[ra] |= regions[rb]
            rep = [ra if r == rb else r for r in rep]
        images.append(frozenset(regions[rep[vertex]]))
    # regions are numbered in circle order, so the sorted last set keeps it
    return CyclicSetChain(sorted(images[-1]), images)
