"""Norm sums of nonnegative matrices and graphs.

Compute trace, Ky Fan, and operator norms of graphs and their complements,
build the matrices that meet the closed-form bounds with equality (Paley
graphs, Hadamard-based block matrices, half-ones rectangles), check every
bound with explicit verdicts, and search for maximizers exhaustively or by
seeded annealing.
"""

__version__ = "0.1.0"

from .bounds import (
    BOUND_KINDS,
    BoundVerdict,
    EqualityReport,
    WeylReport,
    bound_value,
    check_bound,
    conference_eigenvalues,
    equality_analysis,
    weyl_complement_check,
)
from .constructions import (
    HadamardMatrix,
    hadamard,
    kyfan_extremal_matrix,
    opnorm_extremal_matrix,
)
from .errors import (
    BadConfigError,
    BadOrientationError,
    DomainViolationError,
    KOutOfRangeError,
    MissingParamError,
    NoConvergenceError,
    NonSquareError,
    NonSymmetricError,
    NormsumError,
    NotOneModFourError,
    NotPrimePowerError,
    OddProductError,
    OrderTooLargeError,
    SizeOverflowError,
    UnsupportedOrderError,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    graph6_decode,
    graph6_encode,
    graph_from_edges,
    paley_adjacency,
    paley_graph,
)
from .linalg import (
    DIMENSION_CAP,
    DenseMatrix,
    EigenSpectrum,
    SingularSpectrum,
    ky_fan_norm,
    operator_norm,
    svd,
    sym_eigen,
    trace_norm,
)
from .rng import SplitMix64, derive_seed, fnv1a64
from .search import (
    KindSweep,
    SearchConfig,
    SearchResult,
    SweepReport,
    exhaustive_max,
    local_search_max,
    property_sweep,
)

__all__ = [
    "__version__",
    "BOUND_KINDS",
    "BadConfigError",
    "BadOrientationError",
    "BoundVerdict",
    "DIMENSION_CAP",
    "DenseMatrix",
    "DomainViolationError",
    "EigenSpectrum",
    "EqualityReport",
    "Graph",
    "HadamardMatrix",
    "KOutOfRangeError",
    "KindSweep",
    "MissingParamError",
    "NoConvergenceError",
    "NonSquareError",
    "NonSymmetricError",
    "NormsumError",
    "NotOneModFourError",
    "NotPrimePowerError",
    "OddProductError",
    "OrderTooLargeError",
    "SearchConfig",
    "SearchResult",
    "SingularSpectrum",
    "SizeOverflowError",
    "SplitMix64",
    "SweepReport",
    "UnsupportedOrderError",
    "WeylReport",
    "adjacency_matrix",
    "bound_value",
    "check_bound",
    "conference_eigenvalues",
    "derive_seed",
    "equality_analysis",
    "exhaustive_max",
    "fnv1a64",
    "graph6_decode",
    "graph6_encode",
    "graph_from_edges",
    "hadamard",
    "ky_fan_norm",
    "kyfan_extremal_matrix",
    "local_search_max",
    "opnorm_extremal_matrix",
    "operator_norm",
    "paley_adjacency",
    "paley_graph",
    "property_sweep",
    "svd",
    "sym_eigen",
    "trace_norm",
    "weyl_complement_check",
]
