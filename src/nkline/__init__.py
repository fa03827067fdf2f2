"""nkline: construction and exact certification of maximum point sets
with no k+1 collinear points in square integer grids.

Every public name and submodule is imported on first access, so a
process imports only the modules it uses: `nkline verify` never loads
the sampler, the construction or the bounds.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    "BoundsProfile": "bounds",
    "CensusRow": "secants",
    "ConstructionCertificate": "construct",
    "ConstructionError": "construct",
    "Direction": "grid",
    "FeasibilityMatrix": "grid",
    "ParseError": "pointfile",
    "ParsedPointSet": "pointfile",
    "PointSet": "grid",
    "RetriesExhausted": "construct",
    "VerificationReport": "secants",
    "biuniform_construct": "construct",
    "census": "secants",
    "compute_profile": "bounds",
    "derive_seed": "bifactor",
    "estimate_growth_coefficient": "bounds",
    "expected_load": "grid",
    "explicit_construct": "construct",
    "feasibility_matrix_3x3": "grid",
    "feasibility_matrix_4x4": "grid",
    "feasible_k_range": "bounds",
    "growth_coefficient": "bounds",
    "is_feasible": "grid",
    "iter_matchings": "bifactor",
    "line_points": "grid",
    "matching_containment_probability": "bifactor",
    "max_expected_load": "grid",
    "parse": "pointfile",
    "pipeline": "construct",
    "read_points": "pointfile",
    "relabeled_circulants": "bifactor",
    "richness_bound": "secants",
    "sample_blocks": "bifactor",
    "sample_r_factor": "bifactor",
    "serialize": "pointfile",
    "smallest_feasible_n": "bounds",
    "spend": "construct",
    "verify": "secants",
    "write_points": "pointfile",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
