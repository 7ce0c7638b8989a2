"""gkmcalc: exact equivariant cohomology of GKM graphs.

Computes graded dimensions (and bases) of torus-equivariant cohomology
from combinatorial GKM-graph data over exact rational arithmetic, and
derives basic Betti numbers, Morse-Bott Poincare series and ordinary
Betti numbers via the Gysin sequence.
"""

from .exactlin import (
    MatrixQ,
    Rational,
    SubspaceQ,
    canonical_subspace,
    kernel_basis,
)
from .gkmcore import (
    GkmEdge,
    GkmGraph,
    GkmVertex,
    GradedMap,
    GradedVS,
    class_product,
    equivariant_basis,
    equivariant_dims,
    graph_from_json,
    validate_graph,
)
from .series import (
    DegreeSeries,
    GysinData,
    MorseBottData,
    basic_from_equivariant,
    free_hilbert,
    gysin_betti,
    morse_bott_assemble,
    run_checks,
    stanley_reisner_hilbert,
)
from .symalg import sym_dim
from .toric import MomentPolytope, polytope_skeleton, simplex_polytope

__version__ = "0.1.0"

__all__ = [
    "DegreeSeries",
    "GkmEdge",
    "GkmGraph",
    "GkmVertex",
    "GradedMap",
    "GradedVS",
    "GysinData",
    "MatrixQ",
    "MomentPolytope",
    "MorseBottData",
    "Rational",
    "SubspaceQ",
    "__version__",
    "basic_from_equivariant",
    "canonical_subspace",
    "class_product",
    "equivariant_basis",
    "equivariant_dims",
    "free_hilbert",
    "graph_from_json",
    "gysin_betti",
    "kernel_basis",
    "morse_bott_assemble",
    "polytope_skeleton",
    "run_checks",
    "simplex_polytope",
    "stanley_reisner_hilbert",
    "sym_dim",
    "validate_graph",
]
