"""Exact combinatorics of the associative ribbon-graph complex."""

from fatcomplex.ribbon import (
    RibbonGraph,
    OrientedRibbonGraph,
    build_graph,
    natural_orientation,
)
from fatcomplex.trees import maximal_chains
from fatcomplex.graph_complex import (
    GraphChain,
    d_integral,
    enumerate_graphs,
    eval_w,
    forest_complex,
)
from fatcomplex.coefficients import (
    MmmPolynomial,
    a_matrix,
    b_matrix,
    b_single,
    w_polynomial,
)
from fatcomplex.ainfinity import AInfinityAlgebra, partition_function, z_x

__all__ = [
    "RibbonGraph",
    "OrientedRibbonGraph",
    "build_graph",
    "natural_orientation",
    "maximal_chains",
    "GraphChain",
    "d_integral",
    "enumerate_graphs",
    "eval_w",
    "forest_complex",
    "MmmPolynomial",
    "a_matrix",
    "b_matrix",
    "b_single",
    "w_polynomial",
    "AInfinityAlgebra",
    "partition_function",
    "z_x",
]
