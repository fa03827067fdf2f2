"""nkline: construction and exact certification of maximum point sets
with no k+1 collinear points in square integer grids."""

from .bifactor import (
    derive_seed,
    iter_matchings,
    matching_containment_probability,
    relabeled_circulants,
    sample_blocks,
    sample_r_factor,
)
from .bounds import (
    BoundsProfile,
    compute_profile,
    estimate_growth_coefficient,
    feasible_k_range,
    growth_coefficient,
    smallest_feasible_n,
)
from .construct import (
    ConstructionCertificate,
    ConstructionError,
    RetriesExhausted,
    biuniform_construct,
    explicit_construct,
    pipeline,
    spend,
)
from .grid import (
    Direction,
    FeasibilityMatrix,
    PointSet,
    expected_load,
    feasibility_matrix_3x3,
    feasibility_matrix_4x4,
    is_feasible,
    line_points,
    max_expected_load,
)
from .pointfile import ParsedPointSet, ParseError, parse, serialize, write_points
from .secants import (
    CensusRow,
    VerificationReport,
    census,
    richness_bound,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsProfile",
    "CensusRow",
    "ConstructionCertificate",
    "ConstructionError",
    "Direction",
    "FeasibilityMatrix",
    "ParseError",
    "ParsedPointSet",
    "PointSet",
    "RetriesExhausted",
    "VerificationReport",
    "biuniform_construct",
    "census",
    "compute_profile",
    "derive_seed",
    "estimate_growth_coefficient",
    "expected_load",
    "explicit_construct",
    "feasibility_matrix_3x3",
    "feasibility_matrix_4x4",
    "feasible_k_range",
    "growth_coefficient",
    "is_feasible",
    "iter_matchings",
    "line_points",
    "matching_containment_probability",
    "max_expected_load",
    "parse",
    "pipeline",
    "relabeled_circulants",
    "richness_bound",
    "sample_blocks",
    "sample_r_factor",
    "serialize",
    "smallest_feasible_n",
    "spend",
    "verify",
    "write_points",
]
